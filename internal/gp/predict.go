package gp

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Prediction is the posterior predictive distribution at one input point
// (paper Eqs. 4–6): Gaussian with the given mean and standard deviation.
type Prediction struct {
	Mean float64
	SD   float64 // standard deviation of the latent function posterior
}

// CI returns the mean ± z·SD confidence interval bounds; z = 2 gives the
// ~95% interval drawn in the paper's figures.
func (p Prediction) CI(z float64) (lo, hi float64) {
	return p.Mean - z*p.SD, p.Mean + z*p.SD
}

// Predict returns the posterior predictive mean and SD at x
// (Eqs. 5 and 6): μ* = k*ᵀ Ky⁻¹ y, σ*² = k** − k*ᵀ Ky⁻¹ k*.
func (g *GP) Predict(x []float64) Prediction {
	if len(x) != g.x.Cols() {
		panic(fmt.Sprintf("gp: Predict dim %d, model trained on %d", len(x), g.x.Cols()))
	}
	n := g.x.Rows()
	ks := make(mat.Vec, n)
	for i := 0; i < n; i++ {
		ks[i] = g.kern.Eval(x, g.x.RawRow(i))
	}
	mu := mat.Dot(ks, g.alpha)
	// σ*² via the Cholesky factor: v = L⁻¹k*, σ*² = k** − vᵀv.
	v := g.chol.ForwardSubst(ks)
	variance := g.kern.Eval(x, x) - mat.Dot(v, v)
	if variance < 0 {
		variance = 0 // numerical round-off guard
	}
	return Prediction{
		Mean: g.yMean + g.yStd*mu,
		SD:   g.yStd * math.Sqrt(variance),
	}
}

// PredictBatch evaluates the predictive distribution at every row of xs.
//
// It streams the rows in blocks of four and never builds the m×n
// cross-covariance: each block's k* vectors go into one 4n scratch,
// interleaved (element j of lane r at 4j+r), which predictBlock
// finishes. Per lane, the kernel calls, the running sums μ = Σ k_j α_j
// and vᵀv (ascending j) and the solve perform exactly the operations
// of Predict, so every row's result is bit-identical to the
// single-point formula.
func (g *GP) PredictBatch(xs *mat.Dense) []Prediction {
	if xs.Cols() != g.x.Cols() {
		panic(fmt.Sprintf("gp: PredictBatch dim %d, model trained on %d", xs.Cols(), g.x.Cols()))
	}
	m, n := xs.Rows(), g.x.Rows()
	predictBatches.Inc()
	predictPoints.Add(int64(m))
	out := make([]Prediction, m)
	ks := make([]float64, 4*n)
	for base := 0; base < m; base += 4 {
		live := min(4, m-base)
		var kss [4]float64
		for r := 0; r < live; r++ {
			xi := xs.RawRow(base + r)
			for j := 0; j < n; j++ {
				ks[4*j+r] = g.kern.Eval(xi, g.x.RawRow(j))
			}
			kss[r] = g.kern.Eval(xi, xi)
		}
		g.predictBlock(out[base:base+live], ks, &kss)
	}
	return out
}

// predictBlock finishes a block of up to four predictions, one per
// element of out: lane r of ks (element j at 4j+r) holds k* of point r
// and kss[r] its prior variance k(x, x). It zeroes the lanes past
// len(out), accumulates μ = Σ k_j α_j, solves all four L⁻¹k* in place
// with one ForwardSubst4Into pass and sums vᵀv, each in ascending j,
// so a lane's result depends only on its own k* and k(x, x).
func (g *GP) predictBlock(out []Prediction, ks []float64, kss *[4]float64) {
	for r := len(out); r < 4; r++ {
		for j := range g.alpha {
			ks[4*j+r] = 0
		}
	}
	var mu, vv [4]float64
	for j, a := range g.alpha {
		k := (*[4]float64)(ks[4*j:])
		mu[0] += k[0] * a
		mu[1] += k[1] * a
		mu[2] += k[2] * a
		mu[3] += k[3] * a
	}
	g.chol.ForwardSubst4Into(ks, ks)
	for j := range g.alpha {
		v := (*[4]float64)(ks[4*j:])
		vv[0] += v[0] * v[0]
		vv[1] += v[1] * v[1]
		vv[2] += v[2] * v[2]
		vv[3] += v[3] * v[3]
	}
	for r := range out {
		variance := kss[r] - vv[r]
		if variance < 0 {
			variance = 0
		}
		out[r] = Prediction{
			Mean: g.yMean + g.yStd*mu[r],
			SD:   g.yStd * math.Sqrt(variance),
		}
	}
}

// Means extracts the mean of each prediction.
func Means(ps []Prediction) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.Mean
	}
	return out
}

// SDs extracts the standard deviation of each prediction.
func SDs(ps []Prediction) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.SD
	}
	return out
}
