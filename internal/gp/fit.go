package gp

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/optimize"
)

// hyperVector packs [kernel θ..., log σn] (σn omitted when FixedNoise).
func (g *GP) hyperVector() []float64 {
	theta := g.kern.Hyper()
	if g.cfg.FixedNoise {
		return theta
	}
	return append(theta, g.logSN)
}

func (g *GP) setHyperVector(theta []float64) {
	nk := g.kern.NumHyper()
	g.kern.SetHyper(theta[:nk])
	if !g.cfg.FixedNoise {
		g.logSN = theta[nk]
	}
}

func (g *GP) hyperBounds() []optimize.Bounds {
	kb := g.kern.Bounds()
	bounds := make([]optimize.Bounds, 0, len(kb)+1)
	for _, b := range kb {
		bounds = append(bounds, optimize.Bounds{Lo: b.Lo, Hi: b.Hi})
	}
	if !g.cfg.FixedNoise {
		bounds = append(bounds, optimize.Bounds{
			Lo: math.Log(g.cfg.NoiseFloor),
			Hi: math.Log(g.cfg.NoiseCeil),
		})
	}
	return bounds
}

// lmlWorkspace holds the buffers one hyperparameter fit reuses across
// its LML evaluations: Ky, one ∂K/∂θ_j per kernel hyperparameter, the
// Cholesky factor, Ky⁻¹ and α. It lives only as long as the fit, so a
// fitted GP retains none of it. Evaluations through a reused workspace
// perform the same floating-point operations, in the same order, as
// through a fresh one.
type lmlWorkspace struct {
	g      *GP
	saved  []float64 // hyperparameters restored after every evaluation
	ky     *mat.Dense
	kgrads []*mat.Dense // allocated on the first gradient evaluation
	kinv   *mat.Dense
	ch     mat.Cholesky
	alpha  mat.Vec
}

func (g *GP) newLMLWorkspace() *lmlWorkspace {
	n := g.x.Rows()
	return &lmlWorkspace{g: g, saved: g.hyperVector(), ky: mat.New(n, n), alpha: make(mat.Vec, n)}
}

// negLML evaluates -LML(θ) and, when grad is non-nil, its gradient, on
// a fresh workspace.
func (g *GP) negLML(theta []float64, grad []float64) float64 {
	return g.newLMLWorkspace().negLML(theta, grad)
}

// negLML evaluates -LML(θ) and, when grad is non-nil, its gradient.
// Gradient (Rasmussen & Williams Eq. 5.9):
//
//	∂LML/∂θ_j = ½ tr((ααᵀ − Ky⁻¹) ∂Ky/∂θ_j)
//
// with ∂Ky/∂log σn = 2σn² I. Non-PD covariance evaluates to +Inf so the
// line search backs off rather than aborting. The GP's hyperparameters
// are restored to their values at workspace creation before returning.
func (ws *lmlWorkspace) negLML(theta []float64, grad []float64) float64 {
	g := ws.g
	lmlEvals.Inc()
	defer g.setHyperVector(ws.saved)
	g.setHyperVector(theta)

	n := g.x.Rows()
	sn2 := math.Exp(2 * g.logSN)

	if grad != nil {
		if ws.kgrads == nil {
			ws.kgrads = make([]*mat.Dense, g.kern.NumHyper())
			for j := range ws.kgrads {
				ws.kgrads[j] = mat.New(n, n)
			}
			ws.kinv = mat.New(n, n)
		}
		kernel.MatrixGradInto(ws.ky, ws.kgrads, g.kern, g.x)
	} else {
		kernel.MatrixInto(ws.ky, g.kern, g.x)
	}
	ws.ky.AddDiag(sn2)
	g.addPointNoise(ws.ky)

	ch, err := choleskyInto(&ws.ch, ws.ky)
	if err != nil {
		// Indefinite at these hypers: report +Inf; the optimizer's
		// line search will shrink the step.
		if grad != nil {
			for i := range grad {
				grad[i] = 0
			}
		}
		return math.Inf(1)
	}
	alpha := ch.SolveVecInto(ws.alpha, g.y)
	lml := -0.5*mat.Dot(g.y, alpha) - 0.5*ch.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)

	if grad != nil {
		kinv := ch.InverseInto(ws.kinv)
		// W = ααᵀ − Ky⁻¹; ∂LML/∂θ_j = ½ Σ_ij W_ij (∂Ky/∂θ_j)_ij.
		nk := g.kern.NumHyper()
		for j := 0; j < nk; j++ {
			var s float64
			kg := ws.kgrads[j]
			for i := 0; i < n; i++ {
				ai := alpha[i]
				kgRow := kg.RawRow(i)
				kiRow := kinv.RawRow(i)
				for l := 0; l < n; l++ {
					s += (ai*alpha[l] - kiRow[l]) * kgRow[l]
				}
			}
			grad[j] = -0.5 * s // negation: minimizing −LML
		}
		if !g.cfg.FixedNoise {
			// ∂Ky/∂log σn = 2σn² I ⇒ trace term only.
			var s float64
			for i := 0; i < n; i++ {
				s += alpha[i]*alpha[i] - kinv.At(i, i)
			}
			grad[nk] = -0.5 * s * 2 * sn2
		}
	}
	return -lml
}

// optimizeHypers maximizes the LML over [kernel θ, log σn] with
// multi-restart L-BFGS inside the configured bounds (Eq. 13).
func (g *GP) optimizeHypers(ctx context.Context, rng *rand.Rand) error {
	bounds := g.hyperBounds()
	if len(bounds) == 0 {
		return nil // Fixed kernel and fixed noise: nothing to do.
	}
	_, span := obs.Start(ctx, "gp.hyperopt")
	defer span.End()
	restarts := g.cfg.Restarts
	if rng == nil {
		restarts = 0
	}
	ms := &optimize.MultiStart{
		Opt:      &optimize.LBFGS{Bounds: bounds, MaxIter: 100, GradTol: 1e-5},
		Restarts: restarts,
		Bounds:   bounds,
	}
	x0 := g.hyperVector()
	// Clamp the start into the box so the first evaluation is feasible.
	for i := range x0 {
		if x0[i] < bounds[i].Lo {
			x0[i] = bounds[i].Lo
		}
		if x0[i] > bounds[i].Hi {
			x0[i] = bounds[i].Hi
		}
	}
	// One workspace serves every evaluation of this fit, restarts
	// included (MultiStart runs them serially).
	res, err := ms.Minimize(g.newLMLWorkspace().negLML, x0, rng)
	if err != nil {
		return fmt.Errorf("gp: hyperparameter optimization failed: %w", err)
	}
	g.setHyperVector(res.X)
	return nil
}

// LMLAt evaluates the log marginal likelihood at an arbitrary
// hyperparameter vector [kernel θ..., log σn] without changing the fitted
// model. Used to draw the LML landscapes of Figs. 4 and 5(b).
func (g *GP) LMLAt(theta []float64) float64 {
	want := g.kern.NumHyper()
	if !g.cfg.FixedNoise {
		want++
	}
	if len(theta) != want {
		panic(fmt.Sprintf("gp: LMLAt wants %d hyperparameters, got %d", want, len(theta)))
	}
	return -g.negLML(theta, nil)
}

// HyperNames lists the names of the optimized hyperparameters in the
// order used by LMLAt.
func (g *GP) HyperNames() []string {
	names := g.kern.HyperNames()
	if !g.cfg.FixedNoise {
		names = append(names, "log_sn")
	}
	return names
}

// Hyper returns the fitted hyperparameter vector [kernel θ..., log σn].
func (g *GP) Hyper() []float64 { return g.hyperVector() }
