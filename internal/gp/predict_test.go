package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// refPredictBatch is PredictBatch as it stood before the four-lane
// streaming rewrite: the full m×n cross-covariance, then one
// single-right-hand-side solve and two dot products per row. The
// streaming version must reproduce its bits.
func refPredictBatch(g *GP, xs *mat.Dense) []Prediction {
	m := xs.Rows()
	out := make([]Prediction, m)
	kstar := kernel.CrossMatrix(g.kern, xs, g.x)
	v := make(mat.Vec, g.x.Rows())
	for i := 0; i < m; i++ {
		ks := mat.Vec(kstar.RawRow(i))
		mu := mat.Dot(ks, g.alpha)
		g.chol.ForwardSubstInto(v, ks)
		xi := xs.RawRow(i)
		variance := g.kern.Eval(xi, xi) - mat.Dot(v, v)
		if variance < 0 {
			variance = 0
		}
		out[i] = Prediction{
			Mean: g.yMean + g.yStd*mu,
			SD:   g.yStd * math.Sqrt(variance),
		}
	}
	return out
}

func assertSamePredictions(t *testing.T, what string, got, want []Prediction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predictions, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if math.Float64bits(g.Mean) != math.Float64bits(w.Mean) || math.Float64bits(g.SD) != math.Float64bits(w.SD) {
			t.Fatalf("%s: row %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// TestPredictBatchBitIdentical compares the streaming PredictBatch with
// refPredictBatch bit for bit, across kernel families, with and without
// Normalize, for fitted models and for models reached through a chain of
// UpdateWithPoint calls, and for every block tail length: n ∈ {1, 2, 3,
// 5, 17, 61} training points, m ∈ {1, 2, 3, 4, 5, 7, 3246} query rows.
// The first rows are also checked against the single-point Predict.
func TestPredictBatchBitIdentical(t *testing.T) {
	const dims = 3
	kernels := []struct {
		name string
		new  func() kernel.Kernel
	}{
		{"RBF", func() kernel.Kernel { return kernel.NewRBF(0.9, 1.3) }},
		{"ARD", func() kernel.Kernel { return kernel.NewARD([]float64{0.5, 1.4, 2.2}, 0.8) }},
		{"Matern32", func() kernel.Kernel { return kernel.NewMatern32(1.1, 1.2) }},
		{"Matern52", func() kernel.Kernel { return kernel.NewMatern52(0.7, 0.9) }},
		{"Periodic", func() kernel.Kernel { return kernel.NewPeriodic(1.2, 1.1, 1.7) }},
		{"composite", func() kernel.Kernel {
			return kernel.NewSum(kernel.NewProduct(kernel.NewRBF(0.9, 1), kernel.NewPeriodic(1.3, 0.8, 2)), kernel.NewLinear(0.3))
		}},
	}
	rng := rand.New(rand.NewSource(31))
	point := func() []float64 {
		x := make([]float64, dims)
		for d := range x {
			x[d] = 3 * rng.Float64()
		}
		return x
	}
	response := func(x []float64) float64 { return 5 + math.Sin(2*x[0]) + x[1]*x[2] + 0.05*rng.NormFloat64() }
	ms := []int{1, 2, 3, 4, 5, 7, 3246}
	queries := make([][]float64, ms[len(ms)-1])
	for i := range queries {
		queries[i] = point()
	}
	for _, kc := range kernels {
		name, newKernel := kc.name, kc.new
		for _, normalize := range []bool{false, true} {
			for _, n := range []int{1, 2, 3, 5, 17, 61} {
				xs := make([][]float64, n)
				ys := make([]float64, n)
				for i := range xs {
					xs[i] = point()
					ys[i] = response(xs[i])
				}
				cfg := Config{Kernel: newKernel(), NoiseInit: 0.1, FixedNoise: true, Normalize: normalize}
				fitted, err := Fit(cfg, mat.NewFromRows(xs), ys, nil)
				if err != nil {
					t.Fatalf("%s n=%d: %v", name, n, err)
				}
				cfg.Kernel = newKernel()
				chained, err := Fit(cfg, mat.NewFromRows(xs[:1]), ys[:1], nil)
				if err != nil {
					t.Fatalf("%s n=1: %v", name, err)
				}
				for i := 1; i < n; i++ {
					if chained, err = chained.UpdateWithPoint(xs[i], ys[i]); err != nil {
						t.Fatalf("%s update %d: %v", name, i, err)
					}
				}
				for _, model := range []struct {
					origin string
					g      *GP
				}{{"fit", fitted}, {"updated", chained}} {
					origin, g := model.origin, model.g
					for _, m := range ms {
						what := fmt.Sprintf("%s normalize=%v %s n=%d m=%d", name, normalize, origin, n, m)
						grid := mat.NewFromRows(queries[:m])
						got := g.PredictBatch(grid)
						assertSamePredictions(t, what, got, refPredictBatch(g, grid))
						for i := 0; i < m && i < 8; i++ {
							assertSamePredictions(t, what+" vs Predict", got[i:i+1], []Prediction{g.Predict(queries[i])})
						}
					}
				}
			}
		}
	}
}
