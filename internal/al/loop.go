package al

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/stats"
)

// AL-loop metrics (see OBSERVABILITY.md). Each iteration of
// Session.Next, whichever driver runs it, opens an "al.iteration" span
// with "al.model.update", "al.score" and "al.select" children; the
// counters tally work volumes the spans do not capture. The fault-path
// counters (al.retries, al.rejected, al.skipped) stay at zero in healthy
// runs.
var (
	candidatesEvaluated = obs.C("al.candidates.evaluated")
	refits              = obs.C("al.refit.count")
	conditionUpdates    = obs.C("al.condition.count")
	experiments         = obs.C("al.experiments.count")
	poolSize            = obs.G("al.pool.size")
	alRetries           = obs.C("al.retries")
	alRejected          = obs.C("al.rejected")
	alSkipped           = obs.C("al.skipped")
)

// LoopConfig drives one Active Learning realization over a partitioned
// dataset (§IV: Initial seeds the GP, Active is the candidate pool, Test
// measures RMSE).
type LoopConfig struct {
	// Response names the dataset response column to model; required.
	Response string

	// Strategy picks the next experiment; required.
	Strategy Strategy

	// NewKernel constructs a fresh kernel for a given input
	// dimensionality; defaults to an isotropic RBF(1, 1).
	NewKernel func(dims int) kernel.Kernel

	// Iterations bounds the number of AL steps; 0 means run until the
	// convergence rule (or pool exhaustion for non-revisiting
	// strategies).
	Iterations int

	// NoiseFloor is the σn lower bound passed to the GP — the paper's
	// overfitting control (Fig. 7). Default gp.DefaultNoiseFloor.
	NoiseFloor float64

	// DynamicFloorC, when positive, activates the paper's proposed
	// adaptive floor σn ≥ c/√N (§V-B4) with this c, overriding
	// NoiseFloor as training data accumulates.
	DynamicFloorC float64

	// Restarts is the number of random LML-optimizer restarts per fit
	// (default 2).
	Restarts int

	// ReoptimizeEvery refits hyperparameters every k-th iteration
	// (default 1 = every iteration); between refits the previous
	// hyperparameters are reused and only the posterior is updated.
	ReoptimizeEvery int

	// AllowRevisit keeps selected points in the pool so noisy points can
	// be re-measured (§III's requirement; default true). EMCM-style
	// strategies need this false.
	AllowRevisit bool

	// ConvergeWindow and ConvergeTol terminate the loop early when the
	// AMSD changes by less than ConvergeTol (relative) over the last
	// ConvergeWindow iterations (§V-B4's practical termination rule).
	// Zero disables early termination.
	ConvergeWindow int
	ConvergeTol    float64

	// Normalize standardizes the response inside each GP fit. The
	// paper's datasets are log-transformed to O(1) so this is off by
	// default; enable it for raw responses whose scale would otherwise
	// push the LML optimizer into the noise-only local optimum. The
	// noise floor then applies in normalized units.
	Normalize bool

	// CostBudget, when positive, stops the loop once the cumulative
	// experiment cost reaches it — the paper's motivating constraint
	// ("a fixed allocation on an HPC machine or a fixed maximum budget
	// in a cloud environment", §I). The experiment that crosses the
	// budget is still executed and recorded.
	CostBudget float64

	// ScoreWorkers sizes the candidate-scorer worker pool: 0 defers to
	// the process default (SetDefaultScoreWorkers, falling back to
	// runtime.GOMAXPROCS — scoring is parallel by default), 1 forces
	// serial scoring, n > 1 uses n workers. Each prediction depends only
	// on its own pool row and results are written by index, so serial
	// and parallel scoring produce identical selection traces for a
	// fixed seed.
	ScoreWorkers int

	// Faults, when non-nil, wires a fault injector into Run's
	// measurement: node/job failures become measurement errors,
	// corruption maps the response through Corrupt, and stragglers
	// inflate the experiment cost. Nil runs fault-free.
	Faults *faults.Injector

	// RetryBudget is the number of additional attempts for a selected
	// candidate whose measurement fails or whose observation is rejected
	// (default 2; negative disables retries). When the budget is
	// exhausted the candidate is skipped: dropped from the pool without
	// entering the training set, and the iteration leaves no record.
	RetryBudget int

	// GuardSigma, when positive, rejects measured responses farther than
	// GuardSigma predictive standard deviations (latent SD and σn
	// combined) from the model mean at the selected candidate — the
	// gross-outlier guard in front of model conditioning. Non-finite
	// observations are always rejected. Zero disables the distance
	// guard.
	GuardSigma float64

	// CheckpointPath, when set, saves the loop state as JSON after every
	// CheckpointEvery-th iteration (atomically: temp file + rename), for
	// al.Resume. Requires a nil rng argument to Run — the loop then owns
	// a counting RNG seeded from Seed whose position the checkpoint
	// records.
	CheckpointPath string

	// CheckpointEvery is the checkpoint cadence in iterations
	// (default 1).
	CheckpointEvery int

	// Seed seeds the loop-owned RNG used when Run's rng argument is nil
	// (default 1, matching the historical default stream).
	Seed int64

	// OnModel, when non-nil, is invoked from the loop goroutine after
	// every successful model update (initial fit, refit, or incremental
	// conditioning) with the current model. A Regressor is immutable
	// once fitted and safe for concurrent Predict/PredictBatch calls, so
	// the callback may hand it to other goroutines (e.g. a prediction
	// cache) without copying.
	OnModel func(Regressor)

	// Model selects the regression tier backing the loop: "dense" (or
	// empty — the historical exact GP), "sparse" (inducing-point
	// approximation, O(n·m²) refits and O(n·m) incremental updates for
	// campaigns past ~10⁴ points), or "auto" (dense below
	// ModelOptions.Crossover, sparse above, held-out contest between).
	Model string

	// ModelOptions tunes the sparse and auto tiers; ignored for dense.
	ModelOptions ModelOptions

	// BatchSize, when above 1, runs the loop in batch mode for
	// experiments executed in parallel (§VI): each iteration refits,
	// scores the pool once and picks min(BatchSize, open rows) distinct
	// rows with the kriging believer (BatchSelect), which Next then hands
	// out one at a time before the next iteration starts. Every pick is
	// recorded under its iteration's Iter, AMSD and RMSE, and Iterations
	// counts iterations, not picks. Batch mode needs the dense tier,
	// ReoptimizeEvery 1 and no CheckpointPath.
	BatchSize int
}

func (c *LoopConfig) withDefaults() (LoopConfig, error) {
	out := *c
	if out.Response == "" {
		return out, errors.New("al: LoopConfig.Response is required")
	}
	if out.Strategy == nil {
		return out, errors.New("al: LoopConfig.Strategy is required")
	}
	if out.NewKernel == nil {
		out.NewKernel = func(int) kernel.Kernel { return kernel.NewRBF(1, 1) }
	}
	if out.NoiseFloor <= 0 {
		out.NoiseFloor = gp.DefaultNoiseFloor
	}
	if out.Restarts <= 0 {
		out.Restarts = 2
	}
	if out.ReoptimizeEvery <= 0 {
		out.ReoptimizeEvery = 1
	}
	if out.RetryBudget == 0 {
		out.RetryBudget = 2
	} else if out.RetryBudget < 0 {
		out.RetryBudget = 0
	}
	if out.CheckpointEvery <= 0 {
		out.CheckpointEvery = 1
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if !validModel(out.Model) {
		return out, fmt.Errorf("al: unknown model tier %q (want dense, sparse, or auto)", out.Model)
	}
	switch {
	case out.BatchSize < 0:
		return out, errors.New("al: LoopConfig.BatchSize must be ≥ 0")
	case out.BatchSize <= 1:
	case normalizeModel(out.Model) != ModelDense:
		return out, errors.New("al: batch mode needs the dense model tier")
	case out.ReoptimizeEvery > 1:
		return out, errors.New("al: batch mode refits every iteration: ReoptimizeEvery must be 1")
	case out.CheckpointPath != "":
		return out, errors.New("al: batch mode does not checkpoint")
	}
	return out, nil
}

// IterationRecord captures the monitoring quantities of §V-B3 after one
// AL step.
type IterationRecord struct {
	Iter     int     // 1-based iteration number
	Row      int     // dataset row selected
	SDChosen float64 // σ_f(x) at the selected candidate
	AMSD     float64 // arithmetic mean SD across the pool
	RMSE     float64 // error on the Test set (Eq. 2); NaN without one
	Coverage float64 // fraction of Test points inside the 95% predictive CI; NaN without a Test set
	CumCost  float64 // cumulative experiment cost (core-seconds)
	LML      float64 // log marginal likelihood of the fitted GP
	Noise    float64 // fitted σn
	Train    int     // training-set size after this step
}

// Result is one AL realization. Final is the model tier the loop ran
// (dense unless LoopConfig.Model says otherwise); UnwrapGP recovers the
// concrete *gp.GP when the tier is dense.
type Result struct {
	Strategy  string
	Records   []IterationRecord
	Final     Regressor
	TrainRows []int // training rows in order: Run's Initial rows first; RunOnline's seeds left out
	Converged bool  // true when the AMSD rule stopped the loop early
}

// Run executes Active Learning on ds under the given partition. With a
// nil rng the loop owns a deterministic counting RNG seeded from
// cfg.Seed (required when CheckpointPath is set, so the RNG position can
// be checkpointed); the stream is identical to
// rand.New(rand.NewSource(seed)).
func Run(ds *dataset.Dataset, part dataset.Partition, cfg LoopConfig, rng *rand.Rand) (Result, error) {
	s, err := newRunSession(ds, part, cfg, rng)
	if err != nil {
		return Result{}, err
	}
	return s.drive(measureFunc(ds, s.c))
}

// newRunSession validates Run's arguments and prepares its session:
// the Initial rows enter the training set already measured (not vetted,
// no attempts, no cost), and the Active rows form the pool.
func newRunSession(ds *dataset.Dataset, part dataset.Partition, cfg LoopConfig, rng *rand.Rand) (*Session, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := part.Validate(ds); err != nil {
		return nil, err
	}
	if len(part.Initial) == 0 || len(part.Active) == 0 {
		return nil, errors.New("al: partition needs nonempty Initial and Active sets")
	}
	var cs *countingSource
	if rng == nil {
		rng, cs = newCountingRand(c.Seed, 0)
	} else if c.CheckpointPath != "" {
		return nil, errors.New("al: checkpointing requires a loop-owned RNG: pass a nil rng and set LoopConfig.Seed")
	}
	s := newDatasetSession(ds, part, c, rng, cs)
	s.train = append([]int(nil), part.Initial...)
	s.trainY = ds.RespVec(c.Response, part.Initial)
	s.pool = append([]int(nil), part.Active...)
	return s, nil
}

// measureFunc is Run's experiment: the dataset lookup, routed through
// the fault injector when one is configured. With a nil injector it is
// exactly y = ds.RespAt, cost = ds.CostAt.
func measureFunc(ds *dataset.Dataset, c LoopConfig) func(row int, x []float64, attempt int) (float64, float64, error) {
	inj := c.Faults
	resp := c.Response
	return func(row int, x []float64, attempt int) (float64, float64, error) {
		if inj.NodeFails(row, attempt) {
			return 0, 0, fmt.Errorf("al: node failure during experiment at row %d (attempt %d)", row, attempt)
		}
		if inj.JobFails(row, attempt) {
			return 0, 0, fmt.Errorf("al: experiment failed at row %d (attempt %d)", row, attempt)
		}
		y, _ := inj.Corrupt(row, attempt, ds.RespAt(resp, row))
		cost := ds.CostAt(row) * inj.Slowdown(row, attempt)
		return y, cost, nil
	}
}

// vet counts one measurement attempt at row and reports whether its
// observation may enter the training set. It refuses, with an event, a
// failed experiment, a non-finite response, and — with guard > 0 — a
// response farther than guard predictive SDs (latent and noise
// combined) from the model mean at the candidate.
func vet(attempts map[int]int, iter, row int, y float64, err error, guard float64, pred gp.Prediction, obsNoise float64) bool {
	attempt := attempts[row]
	attempts[row] = attempt + 1
	if err != nil {
		obs.Emit("al.experiment.failed", map[string]any{
			"iter": iter, "row": row, "attempt": attempt, "err": err.Error(),
		})
		return false
	}
	sd := math.Sqrt(pred.SD*pred.SD + obsNoise*obsNoise)
	if math.IsNaN(y) || math.IsInf(y, 0) || (guard > 0 && math.Abs(y-pred.Mean) > guard*sd) {
		alRejected.Inc()
		obs.Emit("al.observation.rejected", map[string]any{
			"iter": iter, "row": row, "attempt": attempt, "y": y,
			"mean": pred.Mean, "sd": pred.SD,
		})
		return false
	}
	return true
}

// refitConfig is the GP configuration of a full refit over n
// observations, warm-started from the previous model's hyperparameters
// when it has them.
func refitConfig(c *LoopConfig, dims, n int, prev Regressor) gp.Config {
	floor := c.NoiseFloor
	if c.DynamicFloorC > 0 {
		floor = gp.DynamicNoiseFloor(c.DynamicFloorC, n)
	}
	gcfg := gp.Config{
		Kernel:     c.NewKernel(dims),
		NoiseInit:  math.Max(0.1, floor),
		NoiseFloor: floor,
		Optimize:   true,
		Restarts:   c.Restarts,
		Normalize:  c.Normalize,
	}
	if td, ok := prev.(TrainDataModel); ok {
		gcfg.Kernel.SetHyper(td.Kernel().Hyper())
		gcfg.NoiseInit = math.Max(regNoise(prev), floor)
	}
	return gcfg
}

// amsdConverged is the AMSD convergence rule (§V-B4): the last window
// changes of the AMSD span at most tol, relative to the newest value.
func amsdConverged(hist []float64, window int, tol float64) bool {
	if window <= 0 || len(hist) <= window {
		return false
	}
	lo, hi := stats.MinMax(hist[len(hist)-1-window:])
	return hi-lo <= tol*math.Max(1e-12, math.Abs(hi))
}

// coverage95 returns the fraction of test targets inside the 95%
// predictive interval μ ± 2·√(σ_f² + σn²) — the calibration check behind
// the paper's "prediction confidence" goal. preds are latent-function
// predictions; the observation noise sn (response units) is added here.
func coverage95(sn float64, preds []gp.Prediction, testY []float64) float64 {
	if len(preds) == 0 {
		return math.NaN()
	}
	inside := 0
	for i, p := range preds {
		sd := math.Sqrt(p.SD*p.SD + sn*sn)
		if math.Abs(testY[i]-p.Mean) <= 2*sd {
			inside++
		}
	}
	return float64(inside) / float64(len(preds))
}
