package al

import (
	"context"
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

// AL-loop metrics (see OBSERVABILITY.md). Each iteration of Run and
// Session.Next opens an "al.iteration" span with "al.model.update",
// "al.score" and "al.select" children; the counters tally work volumes
// the spans do not capture. The fault-path counters (al.retries,
// al.rejected, al.skipped) stay at zero in healthy runs.
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

	// Measure, when non-nil, performs the experiment for a selected
	// dataset row instead of reading the dataset: attempt is the 0-based
	// per-row attempt count (retries and revisits keep counting up).
	// Errors and rejected observations are retried per RetryBudget. The
	// default reads ds.RespAt/ds.CostAt, routed through Faults when one
	// is configured.
	Measure func(row int, x []float64, attempt int) (y, cost float64, err error)

	// Faults, when non-nil (and Measure is nil), wires a fault injector
	// into the default measurement: node/job failures become measurement
	// errors, corruption maps the response through Corrupt, and
	// stragglers inflate the experiment cost. Nil runs fault-free.
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
	return out, nil
}

// IterationRecord captures the monitoring quantities of §V-B3 after one
// AL step.
type IterationRecord struct {
	Iter     int     // 1-based iteration number
	Row      int     // dataset row selected
	SDChosen float64 // σ_f(x) at the selected candidate
	AMSD     float64 // arithmetic mean SD across the pool
	RMSE     float64 // error on the Test set (Eq. 2)
	Coverage float64 // fraction of Test points inside the 95% predictive CI
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
	TrainRows []int // dataset rows in training order (Initial first)
	Converged bool  // true when the AMSD rule stopped the loop early
}

// loopState is the mutable state of a Run loop between iterations —
// exactly what a Checkpoint serializes.
type loopState struct {
	train    []int
	trainY   []float64 // measured responses aligned with train
	pool     []int
	records  []IterationRecord
	cumCost  float64
	amsdHist []float64

	// pending is the measurement taken at the end of the previous
	// iteration, not yet conditioned into the model; a skipped iteration
	// leaves it unset and the next model update is a no-op.
	pendingX   []float64
	pendingY   float64
	hasPending bool

	attempts map[int]int // dataset row → measurement attempts so far

	// Hyperparameter state of the last refit and the train-prefix length
	// it covered — the recipe Resume uses to rebuild the model.
	refitHyper []float64
	refitLogSN float64
	refitN     int

	startIter int
	model     Regressor
	converged bool
}

// Run executes Active Learning on ds under the given partition. With a
// nil rng the loop owns a deterministic counting RNG seeded from
// cfg.Seed (required when CheckpointPath is set, so the RNG position can
// be checkpointed); the stream is identical to
// rand.New(rand.NewSource(seed)).
func Run(ds *dataset.Dataset, part dataset.Partition, cfg LoopConfig, rng *rand.Rand) (Result, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if err := part.Validate(ds); err != nil {
		return Result{}, err
	}
	if len(part.Initial) == 0 || len(part.Active) == 0 {
		return Result{}, errors.New("al: partition needs nonempty Initial and Active sets")
	}
	var cs *countingSource
	if rng == nil {
		rng, cs = newCountingRand(c.Seed, 0)
	} else if c.CheckpointPath != "" {
		return Result{}, errors.New("al: checkpointing requires a loop-owned RNG: pass a nil rng and set LoopConfig.Seed")
	}

	st := &loopState{
		train:     append([]int(nil), part.Initial...),
		trainY:    ds.RespVec(c.Response, part.Initial),
		pool:      append([]int(nil), part.Active...),
		attempts:  map[int]int{},
		startIter: 1,
	}
	return runLoop(ds, part, c, rng, cs, st)
}

// measureFunc resolves the experiment executor: the caller's Measure,
// or the dataset lookup optionally routed through the fault injector.
// With a nil injector the default is exactly the historical behavior
// (y = ds.RespAt, cost = ds.CostAt), keeping fault-free traces
// unchanged.
func measureFunc(ds *dataset.Dataset, c LoopConfig) func(row int, x []float64, attempt int) (float64, float64, error) {
	if c.Measure != nil {
		return c.Measure
	}
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

// runLoop is the iteration engine shared by Run and ResumeFrom.
func runLoop(ds *dataset.Dataset, part dataset.Partition, c LoopConfig, rng *rand.Rand, cs *countingSource, st *loopState) (Result, error) {
	testX := ds.Matrix(part.Test)
	testY := ds.RespVec(c.Response, part.Test)
	measure := measureFunc(ds, c)

	maxIter := c.Iterations
	if maxIter <= 0 {
		maxIter = len(part.Active)
	}

	dims := len(ds.VarNames())
	res := Result{Strategy: c.Strategy.Name()}
	model := st.model
	fitter := newModelFitter(c)
	ctx := context.Background()

	// robustRefit fits the full training set through the configured
	// tier's degradation chain, warm-starting from the current model,
	// and records the refit recipe for checkpointing. A degraded dense
	// fit that rejected trailing points pops them from the training set
	// (returning them to the pool for non-revisiting runs).
	robustRefit := func(fitCtx context.Context, iter int) error {
		refits.Inc()
		gcfg := refitConfig(&c, dims, len(st.train), model)
		m, deg, err := fitter.refit(fitCtx, gcfg, ds.Matrix(st.train), st.trainY, model, rng)
		if err != nil {
			return err
		}
		if deg.Rejected > 0 {
			// The degraded fit dropped the newest observations: drop the
			// same rows from the loop's training set so model and state
			// stay aligned.
			n := len(st.train)
			for k := n - deg.Rejected; k < n; k++ {
				alRejected.Inc()
				if !c.AllowRevisit {
					st.pool = append(st.pool, st.train[k])
				}
			}
			obs.Emit("al.train.rejected", map[string]any{
				"iter": iter, "rows": append([]int(nil), st.train[n-deg.Rejected:]...),
				"level": deg.Level.String(),
			})
			st.train = st.train[:n-deg.Rejected]
			st.trainY = st.trainY[:n-deg.Rejected]
		}
		model = m
		hyper, logSN, n, rerr := modelRecipe(m)
		if rerr != nil {
			return rerr
		}
		st.refitHyper = append(st.refitHyper[:0], hyper...)
		st.refitLogSN = logSN
		st.refitN = n
		return nil
	}

	saveCheckpoint := func(nextIter int) error {
		if c.CheckpointPath == "" {
			return nil
		}
		ck := &Checkpoint{
			Version: CheckpointVersion, Strategy: c.Strategy.Name(), Response: c.Response,
			Model: c.Model,
			Seed:  c.Seed, Draws: cs.draws, NextIter: nextIter,
			Train: st.train, TrainY: st.trainY, Pool: st.pool,
			CumCost: st.cumCost, AMSDHist: st.amsdHist,
			RefitHyper: st.refitHyper, RefitLogSN: st.refitLogSN, RefitN: st.refitN,
			HasPending: st.hasPending, PendingX: st.pendingX, PendingY: st.pendingY,
			Attempts: st.attempts,
		}
		for _, r := range st.records {
			ck.Records = append(ck.Records, ToJSONRecord(r))
		}
		return ck.Save(c.CheckpointPath)
	}

	for iter := st.startIter; iter <= maxIter; iter++ {
		if len(st.pool) == 0 {
			break
		}
		iterCtx, iterSpan := obs.Start(ctx, "al.iteration")
		iterSpan.SetAttr("iter", iter)
		reopt := model == nil || (iter-1)%c.ReoptimizeEvery == 0
		updateCtx, updateSpan := obs.Start(iterCtx, "al.model.update")
		var err error
		if reopt {
			err = robustRefit(updateCtx, iter)
		} else if st.hasPending {
			// Between refits, condition on the new observation with the
			// O(n²) bordered-Cholesky update instead of refitting.
			conditionUpdates.Inc()
			m, uerr := model.UpdateWithPoint(st.pendingX, st.pendingY)
			if uerr == nil {
				model = m
			} else {
				// Degenerate update: fall back down the refit chain.
				err = robustRefit(updateCtx, iter)
			}
		}
		// No pending point (previous iteration was skipped): the model
		// already covers the training set; nothing to update.
		updated := reopt || st.hasPending
		st.hasPending = false
		st.pendingX = nil
		updateSpan.End()
		if err != nil {
			return Result{}, fmt.Errorf("al: iteration %d: %w", iter, err)
		}
		if updated && c.OnModel != nil {
			c.OnModel(model)
		}

		// Score the pool.
		_, scoreSpan := obs.Start(iterCtx, "al.score")
		poolX := ds.Matrix(st.pool)
		preds := scorePool(model, poolX, resolveScoreWorkers(c.ScoreWorkers))
		cands := make([]Candidate, len(st.pool))
		var amsd float64
		for i, row := range st.pool {
			cands[i] = Candidate{Row: row, X: poolX.RawRow(i), Pred: preds[i], Cost: ds.CostAt(row)}
			amsd += preds[i].SD
		}
		amsd /= float64(len(st.pool))
		scoreSpan.End()
		candidatesEvaluated.Add(int64(len(st.pool)))
		poolSize.Set(float64(len(st.pool)))

		_, selectSpan := obs.Start(iterCtx, "al.select")
		sel := selectCandidate(c.Strategy, model, cands, rng)
		selectSpan.End()
		if sel < 0 || sel >= len(cands) {
			return Result{}, fmt.Errorf("al: strategy %s returned invalid index %d", c.Strategy.Name(), sel)
		}
		chosen := cands[sel]

		// Measure, with retries on failure and the observation guard in
		// front of model conditioning.
		var y, cost float64
		measured := false
		for try := 0; try <= c.RetryBudget && !measured; try++ {
			my, mcost, merr := measure(chosen.Row, chosen.X, st.attempts[chosen.Row])
			if vet(st.attempts, iter, chosen.Row, my, merr, c.GuardSigma, chosen.Pred, regObsNoise(model)) {
				y, cost, measured = my, mcost, true
			} else if try < c.RetryBudget {
				alRetries.Inc()
			}
		}
		if !measured {
			// Retry budget exhausted: skip the candidate entirely — out
			// of the pool, never into the training set. The model is
			// unchanged, so without removal a deterministic strategy
			// would re-select it forever.
			alSkipped.Inc()
			obs.Emit("al.candidate.skipped", map[string]any{"iter": iter, "row": chosen.Row})
			st.pool = append(st.pool[:sel], st.pool[sel+1:]...)
			iterSpan.End()
			if iter%c.CheckpointEvery == 0 {
				if err := saveCheckpoint(iter + 1); err != nil {
					return Result{}, err
				}
			}
			continue
		}

		experiments.Inc()
		st.train = append(st.train, chosen.Row)
		st.trainY = append(st.trainY, y)
		st.cumCost += cost
		st.pendingX = append([]float64(nil), chosen.X...)
		st.pendingY = y
		st.hasPending = true
		if !c.AllowRevisit {
			st.pool = append(st.pool[:sel], st.pool[sel+1:]...)
		}

		// Test-set error and CI coverage with the current model.
		rmse := math.NaN()
		coverage := math.NaN()
		if len(part.Test) > 0 {
			preds := model.PredictBatch(testX)
			rmse = stats.RMSE(gp.Means(preds), testY)
			coverage = coverage95(regObsNoise(model), preds, testY)
		}

		st.records = append(st.records, IterationRecord{
			Iter:     iter,
			Row:      chosen.Row,
			SDChosen: chosen.Pred.SD,
			AMSD:     amsd,
			RMSE:     rmse,
			Coverage: coverage,
			CumCost:  st.cumCost,
			LML:      regLML(model),
			Noise:    regNoise(model),
			Train:    len(st.train),
		})
		iterSpan.End()

		if iter%c.CheckpointEvery == 0 {
			if err := saveCheckpoint(iter + 1); err != nil {
				return Result{}, err
			}
		}

		// Budget exhaustion (§I's fixed-allocation constraint).
		if c.CostBudget > 0 && st.cumCost >= c.CostBudget {
			break
		}

		// AMSD convergence rule (§V-B4).
		st.amsdHist = append(st.amsdHist, amsd)
		if amsdConverged(st.amsdHist, c.ConvergeWindow, c.ConvergeTol) {
			st.converged = true
			break
		}
	}

	res.Records = st.records
	res.Converged = st.converged
	res.Final = model
	res.TrainRows = st.train
	return res, nil
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
