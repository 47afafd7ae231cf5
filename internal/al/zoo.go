package al

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/obs"
)

// Strategy-zoo metrics (see OBSERVABILITY.md): committee model fits per
// QBC selection and the members a degenerate bootstrap dropped.
var (
	qbcCommitteeFits    = obs.C("al.strategy.qbc.fits")
	qbcCommitteeDropped = obs.C("al.strategy.qbc.dropped")
)

// QBC is query-by-committee selection: a committee of K Gaussian
// processes is fit on the live training set at perturbed
// hyperparameters (optionally on bootstrap resamples), and the next
// experiment maximizes variance-gated committee disagreement,
//
//	score(x) = ln σ(x) + ln spread(x) − γ·μ(x),
//
// where spread is the SD of the members' predicted means and σ/μ come
// from the live model. Where VarianceReduction trusts one model's
// posterior σ, QBC adds the epistemic spread of an ensemble — the
// multi-model/committee selection that "Statistical Hardware Design
// With Multi-model Active Learning" motivates for exactly this
// performance-modeling setting, and a standard zoo member in OpenAL-style
// strategy comparisons.
//
// The committee construction matters under revisiting (the serving
// layer's AllowRevisit=true loops): perturbed-hyperparameter members
// share every observation, so they agree at measured points and
// disagree where different length-scales extrapolate differently —
// spread collapses where data exists, exactly like σ. Bootstrap members
// do NOT have that property (a member whose resample missed a point
// deviates wildly there), which makes raw bootstrap disagreement loop
// on one already-measured point and flood the model with duplicates;
// that is why perturbation is the default, bootstrap the opt-in for
// revisit-free pool studies, and why the σ gate is multiplicative.
//
// γ > 0 is the cost-aware form mirroring CostExponent (Eq. 14 with
// disagreement-weighted variance in place of plain σ; μ is the predicted
// log cost).
//
// Determinism/RNG contract: one Select draws exactly K·NumHyper normals
// plus (when Bootstrap is set) K·n bootstrap indices from the loop RNG,
// regardless of how many committee fits succeed, so the RNG stream
// position is a pure function of the iteration history and
// checkpoint/resume replays the committee bit for bit. Committee
// construction happens on the (serial) selection path, never inside
// scorer workers.
type QBC struct {
	// K is the committee size (default 4).
	K int
	// Gamma weighs predicted cost against disagreement (0 = cost-blind).
	Gamma float64
	// Perturb is the SD of the N(0, Perturb²) log-hyperparameter
	// perturbation each member draws (default 0.3).
	Perturb float64
	// Bootstrap additionally fits each member on a bootstrap resample
	// of the training set instead of the full set. Only sensible when
	// the loop does not revisit measured points (see above).
	Bootstrap bool
	// NewKernel builds each member's kernel; it must produce the same
	// kernel family as the loop that fitted the live model (the member
	// fit perturbs the live model's hyperparameter vector). Defaults to
	// the loop default, an isotropic RBF.
	NewKernel func(dims int) kernel.Kernel
}

func (s QBC) committee() int {
	if s.K > 0 {
		return s.K
	}
	return 4
}

func (s QBC) newKernel(dims int) kernel.Kernel {
	if s.NewKernel != nil {
		return s.NewKernel(dims)
	}
	return kernel.NewRBF(1, 1)
}

func (s QBC) perturb() float64 {
	if s.Perturb > 0 {
		return s.Perturb
	}
	return 0.3
}

// Name implements Strategy.
func (s QBC) Name() string {
	if s.Gamma != 0 {
		return fmt.Sprintf("qbc-cost(%d,%.2f)", s.committee(), s.Gamma)
	}
	return fmt.Sprintf("qbc(%d)", s.committee())
}

// Select implements Strategy as a marginal fallback when no model is
// available: pure variance reduction (no RNG draws, so the fallback
// never shifts the stream).
func (s QBC) Select(cands []Candidate, rng *rand.Rand) int {
	return VarianceReduction{}.Select(cands, rng)
}

// SelectWithModel implements ModelAwareStrategy: build the bootstrap
// committee from the live model's training data, score the pool by
// committee disagreement, and pick the argmax. Any model tier exposing
// its training data works — committee members are always small dense
// fits at perturbed hyperparameters, whatever tier the live model is.
func (s QBC) SelectWithModel(model Regressor, cands []Candidate, rng *rand.Rand) int {
	if len(cands) == 0 {
		return -1
	}
	if model == nil || rng == nil {
		return s.Select(cands, rng)
	}
	td, ok := model.(TrainDataModel)
	nm, ok2 := model.(NoiseModel)
	if !ok || !ok2 {
		return s.Select(cands, rng)
	}
	n := model.NumTrain()
	trainX := td.TrainX()
	trainY := td.TrainY()
	dims := trainX.Cols()
	hyper := td.Kernel().Hyper()
	logSN := nm.LogNoise()

	members := make([]*gp.GP, 0, s.committee())
	for k := 0; k < s.committee(); k++ {
		// Draw the perturbation (and resample) FIRST and
		// unconditionally: the RNG consumption per member is fixed even
		// when the member fit degenerates and is dropped.
		h := append([]float64(nil), hyper...)
		for j := range h {
			h[j] += s.perturb() * rng.NormFloat64()
		}
		bx, by := trainX, trainY
		if s.Bootstrap {
			rx := mat.New(n, dims)
			ry := make([]float64, n)
			for i := 0; i < n; i++ {
				j := rng.Intn(n)
				copy(rx.RawRow(i), trainX.RawRow(j))
				ry[i] = trainY[j]
			}
			bx, by = rx, ry
		}
		m, err := gp.FitAtHypers(gp.Config{Kernel: s.newKernel(dims)}, bx, by, h, logSN)
		if err != nil {
			qbcCommitteeDropped.Inc()
			continue
		}
		qbcCommitteeFits.Inc()
		members = append(members, m)
	}
	if len(members) < 2 {
		// A committee of one has no disagreement; fall back to the
		// single-model criterion.
		return s.Select(cands, rng)
	}

	// Member predictions over the pool. Each member's batch is
	// independent and written to its own slot, so the result is
	// identical regardless of evaluation order.
	xs := mat.New(len(cands), dims)
	for i, c := range cands {
		copy(xs.RawRow(i), c.X)
	}
	means := make([][]float64, len(members))
	for k, m := range members {
		means[k] = gp.Means(m.PredictBatch(xs))
	}

	best, bestV := -1, math.Inf(-1)
	for i, c := range cands {
		var mean, m2 float64
		for _, row := range means {
			mean += row[i]
		}
		mean /= float64(len(members))
		for _, row := range means {
			d := row[i] - mean
			m2 += d * d
		}
		spread := math.Sqrt(m2 / float64(len(members)))
		score := math.Log(c.Pred.SD) + math.Log(spread) - s.Gamma*c.Pred.Mean
		if score > bestV {
			best, bestV = i, score
		}
	}
	if best < 0 {
		// Every score was −Inf: the committee agreed perfectly everywhere
		// (tiny training sets make all resamples identical). Plain
		// variance reduction still has a gradient to follow.
		return s.Select(cands, rng)
	}
	return best
}

// Diversity is variance selection with a k-center diversity bonus: the
// score of a candidate is its predictive SD plus Lambda times its
// distance to the nearest training point,
//
//	score(x) = σ(x) + λ·min_j ‖x − x_j‖.
//
// Pure argmax-σ repeatedly measures the same region when revisiting is
// allowed; the distance term pushes selection toward unexplored parts of
// the design space — the sequential form of greedy k-center selection.
// λ = 0 degenerates to VarianceReduction. Deterministic: no RNG draws.
type Diversity struct {
	// Lambda weighs the min-distance bonus against σ (default 1).
	Lambda float64
}

func (s Diversity) lambda() float64 {
	if s.Lambda > 0 {
		return s.Lambda
	}
	return 1
}

// Name implements Strategy.
func (s Diversity) Name() string { return fmt.Sprintf("diversity(%.2f)", s.lambda()) }

// Select implements Strategy as a marginal fallback (no model → no
// training set to diversify against): pure variance reduction.
func (s Diversity) Select(cands []Candidate, rng *rand.Rand) int {
	return VarianceReduction{}.Select(cands, rng)
}

// SelectWithModel implements ModelAwareStrategy.
func (s Diversity) SelectWithModel(model Regressor, cands []Candidate, rng *rand.Rand) int {
	if len(cands) == 0 {
		return -1
	}
	td, ok := model.(TrainDataModel)
	if !ok {
		return s.Select(cands, rng)
	}
	trainX := td.TrainX()
	nTrain := trainX.Rows()
	lam := s.lambda()
	scores := make([]float64, len(cands))
	parChunks(len(cands), resolveScoreWorkers(0), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d2min := math.Inf(1)
			for j := 0; j < nTrain; j++ {
				if d2 := sqDist(cands[i].X, trainX.RawRow(j)); d2 < d2min {
					d2min = d2
				}
			}
			scores[i] = cands[i].Pred.SD + lam*math.Sqrt(d2min)
		}
	})
	best, bestV := -1, math.Inf(-1)
	for i, v := range scores {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// EMCMGradient is the GP analogue of Cai et al.'s Expected Model Change
// Maximization (paper Eq. 1): for a model linear in x, the gradient-norm
// model change of a fantasy observation at x is proportional to
// σ(x)·‖x‖, so the selection criterion is
//
//	score(x) = ln σ(x) + ln(1 + ‖x‖) − γ·μ(x).
//
// Unlike RunEMCM (the paper's OLS-ensemble baseline, kept for the §III
// comparison) this variant runs on the GP posterior inside the standard
// loop — revisiting works, and the Monte Carlo ensemble variance the
// paper criticizes is replaced by the closed-form σ. γ > 0 adds the
// repository's log-space cost-awareness (μ is the predicted log cost,
// exactly as in CostExponent). Deterministic: no RNG draws.
type EMCMGradient struct {
	// Gamma weighs predicted cost (0 = cost-blind).
	Gamma float64
}

// Name implements Strategy.
func (s EMCMGradient) Name() string {
	if s.Gamma != 0 {
		return fmt.Sprintf("emcm-grad-cost(%.2f)", s.Gamma)
	}
	return "emcm-grad"
}

// Select implements Strategy.
func (s EMCMGradient) Select(cands []Candidate, _ *rand.Rand) int {
	best, bestV := -1, math.Inf(-1)
	for i, c := range cands {
		score := math.Log(c.Pred.SD) + math.Log(1+mat.Norm2(mat.Vec(c.X))) - s.Gamma*c.Pred.Mean
		if score > bestV {
			best, bestV = i, score
		}
	}
	return best
}

// sqDist returns ‖x−y‖² (dimensions must already agree; candidates and
// training rows come from the same dataset matrix).
func sqDist(x, y []float64) float64 {
	var s float64
	for i, xv := range x {
		d := xv - y[i]
		s += d * d
	}
	return s
}
