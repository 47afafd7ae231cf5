package al

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gp"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Oracle runs a real experiment at input x, returning the measured
// response and its cost. It is the paper's target "online" use case
// (§VI): every AL iteration schedules and executes the next experiment
// instead of consulting a database.
type Oracle interface {
	RunExperiment(x []float64) (y, cost float64, err error)
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(x []float64) (y, cost float64, err error)

// RunExperiment implements Oracle.
func (f OracleFunc) RunExperiment(x []float64) (y, cost float64, err error) { return f(x) }

// ErrStopped is the clean-abort sentinel for RunOnline: when the Oracle
// returns an error wrapping ErrStopped, the loop stops immediately —
// no retries, no skip accounting — and RunOnline returns the partial
// Result accumulated so far together with an error wrapping ErrStopped.
// The serving layer's campaign engines use this to unwind a loop whose
// oracle is blocked on a client that will never answer (server
// shutdown): the partial records remain valid and the campaign can be
// resumed later from its observation journal.
var ErrStopped = errors.New("al: stopped")

// RunOnline executes Active Learning against a live Oracle over a finite
// candidate grid. seeds indexes the rows of candidates measured before
// learning starts (≥ 1 required). Candidates stay available for repeated
// measurement. The returned records carry NaN RMSE (there is no held-out
// ground truth online); AMSD remains the convergence monitor.
//
// Oracle failures and non-finite measurements are retried up to
// cfg.RetryBudget additional attempts; a seed that exhausts its budget
// is dropped (an error only if no seed survives), and an AL candidate
// that exhausts it is skipped for that iteration — the model is left
// unchanged and no record is emitted. With cfg.GuardSigma > 0, AL
// measurements farther than that many predictive SDs from the model
// mean are rejected like failures.
func RunOnline(candidates *mat.Dense, seeds []int, oracle Oracle, cfg LoopConfig, rng *rand.Rand) (Result, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if oracle == nil {
		return Result{}, errors.New("al: RunOnline requires an Oracle")
	}
	if candidates == nil || candidates.Rows() == 0 {
		return Result{}, errors.New("al: RunOnline requires a candidate grid")
	}
	if len(seeds) == 0 {
		return Result{}, errors.New("al: RunOnline requires at least one seed experiment")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	maxIter := c.Iterations
	if maxIter <= 0 {
		maxIter = candidates.Rows()
	}

	dims := candidates.Cols()
	var trainX [][]float64
	var trainY []float64
	var cumCost float64
	attempts := map[int]int{}
	var lastMeasureErr error

	// runAt measures row with retries; guard, when non-nil, vets the
	// observation before it may enter the training set. Returns false
	// when the retry budget is exhausted (the row is skipped).
	runAt := func(ctx context.Context, row int, guard func(y float64) bool) (bool, error) {
		_, span := obs.Start(ctx, "al.experiment")
		defer span.End()
		x := append([]float64(nil), candidates.RawRow(row)...)
		for try := 0; try <= c.RetryBudget; try++ {
			attempt := attempts[row]
			attempts[row] = attempt + 1
			y, cost, err := oracle.RunExperiment(x)
			if err != nil {
				if errors.Is(err, ErrStopped) {
					// Clean abort: the oracle will never answer again
					// (server shutdown). Unwind without retry/skip noise.
					return false, fmt.Errorf("al: oracle at row %d: %w", row, err)
				}
				lastMeasureErr = fmt.Errorf("al: oracle at row %d: %w", row, err)
				obs.Emit("al.experiment.failed", map[string]any{
					"row": row, "attempt": attempt, "err": err.Error(),
				})
				if try < c.RetryBudget {
					alRetries.Inc()
				}
				continue
			}
			if math.IsNaN(y) || math.IsInf(y, 0) || (guard != nil && guard(y)) {
				alRejected.Inc()
				obs.Emit("al.observation.rejected", map[string]any{
					"row": row, "attempt": attempt, "y": y,
				})
				if try < c.RetryBudget {
					alRetries.Inc()
				}
				continue
			}
			experiments.Inc()
			trainX = append(trainX, x)
			trainY = append(trainY, y)
			cumCost += cost
			return true, nil
		}
		alSkipped.Inc()
		obs.Emit("al.candidate.skipped", map[string]any{"row": row})
		return false, nil
	}
	ctx := context.Background()
	for _, s := range seeds {
		if s < 0 || s >= candidates.Rows() {
			return Result{}, fmt.Errorf("al: seed index %d out of range %d", s, candidates.Rows())
		}
		if _, err := runAt(ctx, s, nil); err != nil {
			return Result{}, err
		}
	}
	if len(trainY) == 0 {
		if lastMeasureErr != nil {
			return Result{}, fmt.Errorf("al: every seed experiment failed: %w", lastMeasureErr)
		}
		return Result{}, errors.New("al: every seed experiment failed")
	}

	res := Result{Strategy: c.Strategy.Name()}
	var model Regressor
	fitter := newModelFitter(c)
	var amsdHist []float64
	hasPending := false
	for iter := 1; iter <= maxIter; iter++ {
		iterCtx, iterSpan := obs.Start(ctx, "al.iteration")
		iterSpan.SetAttr("iter", iter)
		floor := c.NoiseFloor
		if c.DynamicFloorC > 0 {
			floor = gp.DynamicNoiseFloor(c.DynamicFloorC, len(trainY))
		}
		reopt := model == nil || (iter-1)%c.ReoptimizeEvery == 0
		updateCtx, updateSpan := obs.Start(iterCtx, "al.model.update")
		if reopt {
			refits.Inc()
			gcfg := gp.Config{
				Kernel:     c.NewKernel(dims),
				NoiseInit:  math.Max(0.1, floor),
				NoiseFloor: floor,
				Optimize:   true,
				Restarts:   c.Restarts,
				Normalize:  c.Normalize,
			}
			if td, ok := model.(TrainDataModel); ok {
				gcfg.Kernel.SetHyper(td.Kernel().Hyper())
				gcfg.NoiseInit = math.Max(regNoise(model), floor)
			}
			var deg gp.Degradation
			model, deg, err = fitter.refit(updateCtx, gcfg, mat.NewFromRows(trainX), trainY, model, rng)
			if err == nil && deg.Rejected > 0 {
				// Keep the loop's training set aligned with the degraded
				// model: drop the same trailing observations.
				for k := 0; k < deg.Rejected; k++ {
					alRejected.Inc()
				}
				trainX = trainX[:len(trainX)-deg.Rejected]
				trainY = trainY[:len(trainY)-deg.Rejected]
			}
		} else if hasPending {
			// O(n²) conditioning on the newest measurement.
			conditionUpdates.Inc()
			last := len(trainY) - 1
			m, uerr := model.UpdateWithPoint(trainX[last], trainY[last])
			if uerr == nil {
				model = m
			} else {
				err = uerr
			}
		}
		updated := reopt || hasPending
		hasPending = false
		updateSpan.End()
		if err != nil {
			return Result{}, fmt.Errorf("al: online iteration %d: %w", iter, err)
		}
		if updated && c.OnModel != nil {
			c.OnModel(model)
		}

		_, scoreSpan := obs.Start(iterCtx, "al.score")
		preds := scorePool(model, candidates, resolveScoreWorkers(c.ScoreWorkers))
		cands := make([]Candidate, candidates.Rows())
		var amsd float64
		for i := range cands {
			cands[i] = Candidate{Row: i, X: candidates.RawRow(i), Pred: preds[i]}
			amsd += preds[i].SD
		}
		amsd /= float64(len(cands))
		scoreSpan.End()
		candidatesEvaluated.Add(int64(len(cands)))
		poolSize.Set(float64(len(cands)))

		_, selectSpan := obs.Start(iterCtx, "al.select")
		sel := selectCandidate(c.Strategy, model, cands, rng)
		selectSpan.End()
		if sel < 0 || sel >= len(cands) {
			return Result{}, fmt.Errorf("al: strategy %s returned invalid index %d", c.Strategy.Name(), sel)
		}
		// Only the chosen candidate is used from here on; copying it out
		// leaves the m-entry cands slice unreferenced while runAt waits
		// on the oracle, so a parked campaign does not hold it.
		chosen := cands[sel]
		var guard func(float64) bool
		if c.GuardSigma > 0 {
			pred := chosen.Pred
			sn := regObsNoise(model)
			guard = func(y float64) bool { return guardRejects(c.GuardSigma, pred, sn, y) }
		}
		ok, err := runAt(iterCtx, chosen.Row, guard)
		if err != nil {
			iterSpan.End()
			if errors.Is(err, ErrStopped) {
				// Partial result: everything up to the interrupted
				// iteration stands; the caller resumes from its journal.
				res.Final = model
				return res, err
			}
			return Result{}, err
		}
		if !ok {
			// Skipped: the model saw nothing new; move to the next
			// iteration without a record.
			iterSpan.End()
			continue
		}
		hasPending = true

		res.Records = append(res.Records, IterationRecord{
			Iter:     iter,
			Row:      chosen.Row,
			SDChosen: chosen.Pred.SD,
			AMSD:     amsd,
			RMSE:     math.NaN(),
			CumCost:  cumCost,
			LML:      regLML(model),
			Noise:    regNoise(model),
			Train:    len(trainY),
		})
		res.TrainRows = append(res.TrainRows, chosen.Row)
		if c.OnRecord != nil {
			c.OnRecord(res.Records[len(res.Records)-1])
		}
		iterSpan.End()

		// Budget exhaustion (§I's fixed-allocation constraint), mirroring
		// the offline loop: the crossing experiment is still recorded.
		if c.CostBudget > 0 && cumCost >= c.CostBudget {
			break
		}

		amsdHist = append(amsdHist, amsd)
		if c.ConvergeWindow > 0 && len(amsdHist) > c.ConvergeWindow {
			w := amsdHist[len(amsdHist)-1-c.ConvergeWindow:]
			lo, hi := stats.MinMax(w)
			if hi-lo <= c.ConvergeTol*math.Max(1e-12, math.Abs(hi)) {
				res.Converged = true
				break
			}
		}
	}
	res.Final = model
	return res, nil
}
