package gp

import (
	"fmt"
	"math/rand"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// PosteriorSample draws one joint sample of the latent function at the
// rows of xs from the GP posterior: f ~ N(μ, Σ) with
//
//	μ = K*ᵀ Ky⁻¹ y,   Σ = K** − K*ᵀ Ky⁻¹ K*
//
// realized as μ + L z for the Cholesky factor L of Σ (jitter-stabilized)
// and z ~ N(0, I). Joint samples respect the covariance *between*
// candidate points, which marginal Predict calls cannot express; they
// back posterior-sampling AL strategies and visual posterior envelopes.
func (g *GP) PosteriorSample(xs *mat.Dense, rng *rand.Rand) ([]float64, error) {
	if xs.Cols() != g.x.Cols() {
		return nil, fmt.Errorf("gp: PosteriorSample dim %d, model trained on %d", xs.Cols(), g.x.Cols())
	}
	if rng == nil {
		return nil, fmt.Errorf("gp: PosteriorSample requires rng")
	}
	m := xs.Rows()
	kstar := kernel.CrossMatrix(g.kern, xs, g.x) // m×n
	kss := kernel.Matrix(g.kern, xs)             // m×m

	// μ = K* α.
	mu := kstar.MulVec(g.alpha)

	// Σ = K** − V Vᵀ with V = K* L⁻ᵀ, i.e. Vᵀ = L⁻¹ K*ᵀ.
	vT := g.chol.ForwardSubstMat(kstar.T()) // n×m
	kss.Sub(mat.SyrkT(vT))
	kss.Symmetrize()

	chS, _, err := mat.NewCholeskyJitter(kss, 1e-10, 25)
	if err != nil {
		return nil, fmt.Errorf("gp: posterior covariance factorization: %w", err)
	}
	z := make(mat.Vec, m)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	lz := chS.Unpack().MulVec(z)
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		out[i] = g.yMean + g.yStd*(mu[i]+lz[i])
	}
	return out, nil
}
