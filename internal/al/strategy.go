package al

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gp"
)

// Candidate is one pool point presented to a strategy.
type Candidate struct {
	// Row is the dataset row index of the candidate.
	Row int
	// X is the candidate's input vector.
	X []float64
	// Pred is the GP predictive distribution at X (in model space, i.e.
	// log-transformed units when the dataset is log-transformed). The
	// paper's cost-aware strategy reads the experiment cost from it: the
	// *predicted* cost μ, not a measured one.
	Pred gp.Prediction
}

// Strategy scores pool candidates and picks the next experiment.
type Strategy interface {
	// Select returns the index into cands of the chosen candidate.
	Select(cands []Candidate, rng *rand.Rand) int
	// Name identifies the strategy in reports.
	Name() string
}

// VarianceReduction selects argmax σ: the point the model is least sure
// about (§V-B3).
type VarianceReduction struct{}

// Select implements Strategy.
func (VarianceReduction) Select(cands []Candidate, _ *rand.Rand) int {
	best, bestV := -1, math.Inf(-1)
	for i, c := range cands {
		if c.Pred.SD > bestV {
			best, bestV = i, c.Pred.SD
		}
	}
	return best
}

// Name implements Strategy.
func (VarianceReduction) Name() string { return "variance-reduction" }

// CostEfficiency selects argmax (σ − μ) on log responses (Eq. 14): the
// log of the variance/cost ratio when the response itself (runtime,
// energy) is the experiment cost.
type CostEfficiency struct{}

// Select implements Strategy.
func (CostEfficiency) Select(cands []Candidate, _ *rand.Rand) int {
	best, bestV := -1, math.Inf(-1)
	for i, c := range cands {
		if v := c.Pred.SD - c.Pred.Mean; v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Name implements Strategy.
func (CostEfficiency) Name() string { return "cost-efficiency" }

// CostExponent generalizes the two paper strategies with a weight γ on
// the predicted cost: criterion σ − γ·μ. γ = 0 is VarianceReduction,
// γ = 1 is CostEfficiency; intermediate values trade uncertainty against
// cost more softly. This is the ablation axis for the design choice in
// Eq. 14.
type CostExponent struct {
	Gamma float64
}

// Select implements Strategy.
func (s CostExponent) Select(cands []Candidate, _ *rand.Rand) int {
	best, bestV := -1, math.Inf(-1)
	for i, c := range cands {
		if v := c.Pred.SD - s.Gamma*c.Pred.Mean; v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Name implements Strategy.
func (s CostExponent) Name() string { return fmt.Sprintf("cost-exponent(%.2f)", s.Gamma) }

// EpsilonGreedy wraps a base strategy with ε-probability uniform
// exploration: with probability Eps the next experiment is drawn
// uniformly from the pool, otherwise the base rule decides. A standard
// guard against a mis-fit model steering all measurements into one
// region early on.
type EpsilonGreedy struct {
	Base Strategy
	Eps  float64
}

// Select implements Strategy.
func (s EpsilonGreedy) Select(cands []Candidate, rng *rand.Rand) int {
	if len(cands) == 0 {
		return -1
	}
	if rng != nil && s.Eps > 0 && rng.Float64() < s.Eps {
		return rng.Intn(len(cands))
	}
	if s.Base == nil {
		return VarianceReduction{}.Select(cands, rng)
	}
	return s.Base.Select(cands, rng)
}

// Name implements Strategy.
func (s EpsilonGreedy) Name() string {
	base := "variance-reduction"
	if s.Base != nil {
		base = s.Base.Name()
	}
	return fmt.Sprintf("eps-greedy(%.2f,%s)", s.Eps, base)
}

// Random selects uniformly — the naive fixed-design baseline.
type Random struct{}

// Select implements Strategy.
func (Random) Select(cands []Candidate, rng *rand.Rand) int {
	if len(cands) == 0 {
		return -1
	}
	return rng.Intn(len(cands))
}

// Name implements Strategy.
func (Random) Name() string { return "random" }
