package gp

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/obs"
)

// Incremental-conditioning metrics (see OBSERVABILITY.md): the AL loop's
// model updates are either O(n²) factor extensions or O(n³) refits; the
// ratio of these two counters is the speedup story of the incremental
// path.
var (
	updateIncremental = obs.C("gp.update.incremental")
	updateRefit       = obs.C("gp.update.refit")
)

// UpdateWithPoint returns a new GP incorporating one additional
// observation (x, y) at the current hyperparameters. The cached Cholesky
// factor is extended with a bordered O(n²) update and α = Ky⁻¹y is
// recomputed with two triangular solves, so the whole update costs O(n²)
// instead of the O(n³) of a fresh Fit. When the bordered pivot is not
// positive — a numerically degenerate border, e.g. a revisited point
// under a tiny noise floor — it falls back to a full refactorization at
// unchanged hyperparameters, still avoiding hyperparameter
// re-optimization.
//
// Hyperparameters, normalization constants and jitter are inherited from
// the receiver, so a chain of updates is exact only relative to those
// constants: re-fit (with Optimize) periodically when they should track
// the growing dataset. The receiver is not modified and remains usable.
func (g *GP) UpdateWithPoint(x []float64, y float64) (*GP, error) {
	if len(x) != g.x.Cols() {
		return nil, fmt.Errorf("gp: UpdateWithPoint dim %d, model trained on %d", len(x), g.x.Cols())
	}
	conditionOps.Inc()
	n := g.x.Rows()

	// Border of the covariance matrix: b_i = k(x, x_i), c = k(x,x)+σn².
	border := make(mat.Vec, n)
	for i := 0; i < n; i++ {
		border[i] = g.kern.Eval(x, g.x.RawRow(i))
	}
	diag := g.kern.Eval(x, x) + math.Exp(2*g.logSN) + g.jitter

	nx := mat.New(n+1, g.x.Cols())
	for i := 0; i < n; i++ {
		copy(nx.RawRow(i), g.x.RawRow(i))
	}
	copy(nx.RawRow(n), x)
	ny := append(g.y.Clone(), (y-g.yMean)/g.yStd)

	out := &GP{
		cfg:    g.cfg,
		kern:   g.kern,
		x:      nx,
		y:      ny,
		yMean:  g.yMean,
		yStd:   g.yStd,
		logSN:  g.logSN,
		jitter: g.jitter,
		// Inherited by the bordered path only: the fallback
		// factorize below draws a new lineage.
		lineage: g.lineage,
	}

	ext, err := g.chol.Extended(border, diag)
	if err != nil {
		// Degenerate border: refactorize from scratch at the same
		// hyperparameters (jitter retries included) rather than failing
		// the AL iteration.
		updateRefit.Inc()
		if ferr := out.factorize(); ferr != nil {
			return nil, fmt.Errorf("gp: incremental update and refit both failed: %w", ferr)
		}
		return out, nil
	}
	updateIncremental.Inc()
	out.chol = ext
	out.alpha = ext.SolveVec(ny)
	out.lml = -0.5*mat.Dot(ny, out.alpha) - 0.5*ext.LogDet() -
		0.5*float64(n+1)*math.Log(2*math.Pi)
	return out, nil
}
