package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// shiftKernel is k(x, y) = c with c unconstrained in sign, so a negative
// c makes Ky indefinite: the test's way to force a failed factorization
// in the middle of a workspace's life. θ = [c].
type shiftKernel struct{ c float64 }

func (k *shiftKernel) Eval(_, _ []float64) float64 { return k.c }
func (k *shiftKernel) EvalGrad(_, _ []float64, g []float64) float64 {
	g[0] = 1
	return k.c
}
func (k *shiftKernel) NumHyper() int           { return 1 }
func (k *shiftKernel) Hyper() []float64        { return []float64{k.c} }
func (k *shiftKernel) SetHyper(th []float64)   { k.c = th[0] }
func (k *shiftKernel) Bounds() []kernel.Bounds { return []kernel.Bounds{{Lo: -200, Hi: 10}} }
func (k *shiftKernel) HyperNames() []string    { return []string{"c"} }
func (k *shiftKernel) Name() string            { return "Shift" }

// refNegLML is the allocating LML evaluation as it stood before the
// per-fit workspace: fresh Ky and gradient matrices, a fresh factor, and
// the inverse as Ky⁻¹·I solved column by column.
func refNegLML(g *GP, theta, grad []float64) float64 {
	saved := g.hyperVector()
	defer g.setHyperVector(saved)
	g.setHyperVector(theta)

	n := g.x.Rows()
	sn2 := math.Exp(2 * g.logSN)
	var ky *mat.Dense
	var kgrads []*mat.Dense
	if grad != nil {
		ky, kgrads = kernel.MatrixGrad(g.kern, g.x)
	} else {
		ky = kernel.Matrix(g.kern, g.x)
	}
	ky.AddDiag(sn2)
	g.addPointNoise(ky)
	ch, err := cholesky(ky)
	if err != nil {
		for i := range grad {
			grad[i] = 0
		}
		return math.Inf(1)
	}
	alpha := ch.SolveVec(g.y)
	lml := -0.5*mat.Dot(g.y, alpha) - 0.5*ch.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
	if grad != nil {
		kinv := ch.Solve(mat.Eye(n))
		nk := g.kern.NumHyper()
		for j := 0; j < nk; j++ {
			var s float64
			for i := 0; i < n; i++ {
				for l := 0; l < n; l++ {
					s += (alpha[i]*alpha[l] - kinv.At(i, l)) * kgrads[j].At(i, l)
				}
			}
			grad[j] = -0.5 * s
		}
		if !g.cfg.FixedNoise {
			var s float64
			for i := 0; i < n; i++ {
				s += alpha[i]*alpha[i] - kinv.At(i, i)
			}
			grad[nk] = -0.5 * s * 2 * sn2
		}
	}
	return -lml
}

// TestLMLWorkspaceBitIdentical reuses one workspace across PD and non-PD
// hyperparameters, with and without gradients, and requires each value
// and gradient to equal the allocating evaluation bit for bit.
func TestLMLWorkspaceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 17, 64} {
		for _, variant := range []string{"plain", "point-noise", "fixed-noise"} {
			x := mat.New(n, 2)
			y := make([]float64, n)
			for i := 0; i < n; i++ {
				x.Set(i, 0, 4*rng.Float64())
				x.Set(i, 1, 4*rng.Float64())
				y[i] = math.Sin(x.At(i, 0)) + 0.1*rng.NormFloat64()
			}
			cfg := Config{Kernel: kernel.NewSum(kernel.NewRBF(1, 1), &shiftKernel{c: 0.1}), NoiseInit: 0.2}
			switch variant {
			case "point-noise":
				cfg.PointNoiseVar = make([]float64, n)
				for i := range cfg.PointNoiseVar {
					cfg.PointNoiseVar[i] = 0.5 * rng.Float64()
				}
			case "fixed-noise":
				cfg.FixedNoise = true
			}
			g, err := buildGP(cfg, x, y)
			if err != nil {
				t.Fatal(err)
			}
			start := g.hyperVector()
			// θ = [log l, log σf, c, (log σn)]; c = -100 makes Ky indefinite.
			pd := func() []float64 {
				th := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()}
				if !cfg.FixedNoise {
					th = append(th, -3*rng.Float64())
				}
				return th
			}
			notPD := func() []float64 {
				th := pd()
				th[2] = -100
				return th
			}
			ws := g.newLMLWorkspace()
			steps := []struct {
				theta    []float64
				withGrad bool
			}{
				{pd(), true}, {notPD(), true}, {pd(), true}, {pd(), false},
				{notPD(), false}, {pd(), true}, {notPD(), true}, {pd(), false}, {pd(), true},
			}
			for s, st := range steps {
				what := fmt.Sprintf("n=%d %s step %d θ=%v grad=%v", n, variant, s, st.theta, st.withGrad)
				var got, want []float64
				if st.withGrad {
					got = make([]float64, len(st.theta))
					want = make([]float64, len(st.theta))
					for i := range got {
						got[i], want[i] = math.NaN(), math.NaN() // catch unwritten entries
					}
				}
				v := ws.negLML(st.theta, got)
				rv := refNegLML(g, st.theta, want)
				if indefinite := st.theta[2] < 0; indefinite != math.IsInf(v, 1) {
					t.Fatalf("%s: -LML %v, but indefinite Ky is %v", what, v, indefinite)
				}
				if math.Float64bits(v) != math.Float64bits(rv) {
					t.Fatalf("%s: -LML %v, allocating path %v", what, v, rv)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: gradient[%d] %v, allocating path %v", what, i, got[i], want[i])
					}
				}
				for i, h := range g.hyperVector() {
					if math.Float64bits(h) != math.Float64bits(start[i]) {
						t.Fatalf("%s: hyperparameters not restored: %v, want %v", what, g.hyperVector(), start)
					}
				}
			}
		}
	}
}
