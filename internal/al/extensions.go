package al

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/gp"
	"repro/internal/optimize"
)

// BatchSelect picks k distinct pool candidates for parallel execution
// using the kriging-believer heuristic: after each greedy pick, the model
// is conditioned on a fantasy observation equal to its own predictive
// mean, deflating the variance around the pick so the next pick explores
// elsewhere. This addresses the paper's future-work note that parallel
// experiments "may indicate a less greedy selection strategy" (§VI).
func BatchSelect(model *gp.GP, cands []Candidate, k int, strategy Strategy, rng *rand.Rand) ([]int, error) {
	if model == nil || strategy == nil {
		return nil, errors.New("al: BatchSelect requires a model and a strategy")
	}
	if k <= 0 || k > len(cands) {
		return nil, fmt.Errorf("al: BatchSelect k=%d with %d candidates", k, len(cands))
	}
	remaining := append([]Candidate(nil), cands...)
	cur := model
	var picks []int
	for round := 0; round < k; round++ {
		// Rescore the remaining candidates under the believer model.
		for i := range remaining {
			remaining[i].Pred = cur.Predict(remaining[i].X)
		}
		sel := strategy.Select(remaining, rng)
		if sel < 0 || sel >= len(remaining) {
			return nil, fmt.Errorf("al: strategy %s returned invalid index %d", strategy.Name(), sel)
		}
		chosen := remaining[sel]
		picks = append(picks, chosen.Row)
		remaining = append(remaining[:sel], remaining[sel+1:]...)
		if round == k-1 {
			break
		}
		next, err := cur.Augmented(chosen.X, chosen.Pred.Mean)
		if err != nil {
			return nil, fmt.Errorf("al: believer update: %w", err)
		}
		cur = next
	}
	return picks, nil
}

// Criterion scores a predictive distribution for continuous selection;
// larger is better.
type Criterion func(p gp.Prediction) float64

// VarianceCriterion is the continuous analogue of VarianceReduction.
func VarianceCriterion(p gp.Prediction) float64 { return p.SD }

// ContinuousSelectGrad maximizes the predictive standard deviation over a
// continuous box by multi-start L-BFGS using the GP's analytic input-space
// gradients ∂σ/∂x — the gradient-based continuous selection the paper's
// §VI calls out as an important benefit for high-dimensional spaces. The
// kernel must implement kernel.InputGradient (RBF, ARD, Matérn-5/2 and
// their sums/products do).
func ContinuousSelectGrad(model *gp.GP, bounds []optimize.Bounds, restarts int, rng *rand.Rand) ([]float64, float64, error) {
	if model == nil {
		return nil, 0, errors.New("al: ContinuousSelectGrad requires a model")
	}
	if len(bounds) != model.TrainX().Cols() {
		return nil, 0, fmt.Errorf("al: %d bounds for %d input dimensions", len(bounds), model.TrainX().Cols())
	}
	if restarts < 1 {
		restarts = 4
	}
	obj := func(x []float64, grad []float64) float64 {
		p, _, dSD, err := model.PredictGrad(x)
		if err != nil {
			panic(err) // kernel capability checked below before first call
		}
		if grad != nil {
			for i := range grad {
				grad[i] = -dSD[i]
			}
		}
		return -p.SD
	}
	// Surface capability errors eagerly instead of panicking mid-search.
	x0 := make([]float64, len(bounds))
	for i, b := range bounds {
		x0[i] = 0.5 * (b.Lo + b.Hi)
	}
	if _, _, _, err := model.PredictGrad(x0); err != nil {
		return nil, 0, err
	}
	ms := &optimize.MultiStart{
		Opt:      &optimize.LBFGS{Bounds: bounds, MaxIter: 100},
		Restarts: restarts,
		Bounds:   bounds,
	}
	res, err := ms.Minimize(obj, x0, rng)
	if err != nil {
		return nil, 0, err
	}
	return res.X, -res.F, nil
}

// ContinuousSelect maximizes a selection criterion over a continuous box
// instead of a finite pool — the paper's proposed extension for
// "continuous or near-continuous parameters" (§VI). It runs multi-start
// Nelder–Mead (the criterion surface is cheap and derivative-free search
// avoids needing ∂σ/∂x) and returns the best input found.
func ContinuousSelect(model *gp.GP, bounds []optimize.Bounds, crit Criterion, restarts int, rng *rand.Rand) ([]float64, float64, error) {
	if model == nil {
		return nil, 0, errors.New("al: ContinuousSelect requires a model")
	}
	if len(bounds) != model.TrainX().Cols() {
		return nil, 0, fmt.Errorf("al: %d bounds for %d input dimensions", len(bounds), model.TrainX().Cols())
	}
	if crit == nil {
		crit = VarianceCriterion
	}
	if restarts < 1 {
		restarts = 4
	}
	obj := func(x []float64, grad []float64) float64 {
		return -crit(model.Predict(x)) // minimize the negation
	}
	ms := &optimize.MultiStart{
		Opt:      &optimize.NelderMead{Bounds: bounds, MaxIter: 400},
		Restarts: restarts,
		Bounds:   bounds,
	}
	x0 := make([]float64, len(bounds))
	for i, b := range bounds {
		x0[i] = 0.5 * (b.Lo + b.Hi)
	}
	res, err := ms.Minimize(obj, x0, rng)
	if err != nil {
		return nil, 0, err
	}
	return res.X, -res.F, nil
}
