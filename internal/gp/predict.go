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

// PredictNoisy is Predict with the observation noise σn² added to the
// predictive variance — the distribution of a future *measurement* rather
// than of the latent function.
func (g *GP) PredictNoisy(x []float64) Prediction {
	p := g.Predict(x)
	sn := g.yStd * math.Exp(g.logSN)
	p.SD = math.Sqrt(p.SD*p.SD + sn*sn)
	return p
}

// PredictBatch evaluates the predictive distribution at every row of xs.
//
// It streams the rows in blocks of four and never builds the m×n
// cross-covariance: each block's k* vectors go into one 4n scratch,
// interleaved (element j of lane r at 4j+r), and one ForwardSubst4Into
// pass solves all four L⁻¹k* in place. A block short of four rows
// zero-pads its unused lanes. Per lane, the kernel calls, the running
// sums μ = Σ k_j α_j and vᵀv (ascending j) and the solve perform exactly
// the operations of Predict, so every row's result is bit-identical to
// the single-point formula.
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
		var mu, vv [4]float64
		for r := 0; r < 4; r++ {
			if base+r >= m {
				for j := 0; j < n; j++ {
					ks[4*j+r] = 0
				}
				continue
			}
			xi := xs.RawRow(base + r)
			var s float64
			for j, a := range g.alpha {
				k := g.kern.Eval(xi, g.x.RawRow(j))
				ks[4*j+r] = k
				s += k * a
			}
			mu[r] = s
		}
		g.chol.ForwardSubst4Into(ks, ks)
		for j := 0; j < n; j++ {
			v := (*[4]float64)(ks[4*j:])
			vv[0] += v[0] * v[0]
			vv[1] += v[1] * v[1]
			vv[2] += v[2] * v[2]
			vv[3] += v[3] * v[3]
		}
		for r := 0; r < 4 && base+r < m; r++ {
			xi := xs.RawRow(base + r)
			variance := g.kern.Eval(xi, xi) - vv[r]
			if variance < 0 {
				variance = 0
			}
			out[base+r] = Prediction{
				Mean: g.yMean + g.yStd*mu[r],
				SD:   g.yStd * math.Sqrt(variance),
			}
		}
	}
	return out
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
