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

// RunOnline executes Active Learning against a live Oracle over a finite
// candidate grid (arguments as for NewSession): it runs each point a
// Session asks for through the oracle, under an "al.experiment" span,
// and tells the session the outcome. A seed that exhausts its retries
// is dropped (an error only if no seed survives); an AL candidate that
// does is skipped for that iteration, leaving no record.
func RunOnline(candidates *mat.Dense, seeds []int, oracle Oracle, cfg LoopConfig, rng *rand.Rand) (Result, error) {
	if oracle == nil {
		return Result{}, errors.New("al: RunOnline requires an Oracle")
	}
	s, err := NewSession(candidates, seeds, cfg, rng)
	if err != nil {
		return Result{}, err
	}
	for {
		x, err := s.Next()
		if err != nil {
			return Result{}, err
		}
		if x == nil {
			return s.Result(), nil
		}
		_, span := obs.Start(context.Background(), "al.experiment")
		y, cost, err := oracle.RunExperiment(x)
		span.End()
		s.Tell(y, cost, err)
	}
}

// Session is the online AL loop as an ask/tell state machine, for
// experiments that run somewhere else — a cluster job, an HTTP client
// (§VI). Next asks for the point to measure, Tell reports the outcome.
// The session owns the RNG, model, training set, records and attempt
// counts, and applies the retry, guard, skip, budget and convergence
// rules, so every driver — RunOnline, a served campaign, a journal
// replay — produces the same trace for the same answers. A Session is
// not safe for concurrent use.
type Session struct {
	c          LoopConfig
	candidates *mat.Dense
	seeds      []int // seed rows not yet settled
	rng        *rand.Rand
	fitter     modelFitter

	trainX     [][]float64
	trainY     []float64
	cumCost    float64
	attempts   map[int]int // candidate row → measurement attempts so far
	lastErr    error       // most recent oracle failure, for the all-seeds-failed error
	model      Regressor
	hasPending bool // newest observation not yet conditioned into model
	amsdHist   []float64
	res        Result

	// The outstanding ask (x is nil when there is none); iter is 0 while
	// seeds are measured, pred and amsd describe an AL selection.
	iter  int
	row   int
	x     []float64
	tries int // failed attempts at the outstanding ask
	pred  gp.Prediction
	amsd  float64

	done bool
	err  error
}

// NewSession validates the configuration and prepares a session over a
// finite candidate grid. seeds indexes the rows of candidates measured
// before learning starts (≥ 1 required). Candidates stay available for
// repeated measurement. A nil rng uses rand.NewSource(1).
func NewSession(candidates *mat.Dense, seeds []int, cfg LoopConfig, rng *rand.Rand) (*Session, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if candidates == nil || candidates.Rows() == 0 {
		return nil, errors.New("al: online AL requires a candidate grid")
	}
	if len(seeds) == 0 {
		return nil, errors.New("al: online AL requires at least one seed experiment")
	}
	for _, s := range seeds {
		if s < 0 || s >= candidates.Rows() {
			return nil, fmt.Errorf("al: seed index %d out of range %d", s, candidates.Rows())
		}
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if c.Iterations <= 0 {
		c.Iterations = candidates.Rows()
	}
	return &Session{
		c:          c,
		candidates: candidates,
		seeds:      seeds,
		rng:        rng,
		fitter:     newModelFitter(c),
		attempts:   map[int]int{},
		res:        Result{Strategy: c.Strategy.Name()},
	}, nil
}

// Next returns the point to measure: the seeds first, then one AL
// selection per iteration — model update, scoring and selection under
// an "al.iteration" span — and the same point again while a failed
// measurement has retries left. Until Tell answers, Next repeats the
// point without new work. A nil x means the session is over (see
// Result); a failed session returns its error.
func (s *Session) Next() ([]float64, error) {
	if s.x == nil && !s.done {
		if s.err = s.advance(); s.err != nil {
			s.done = true
		}
	}
	return s.x, s.err
}

// Tell reports the measurement of the point Next returned: y and its
// cost, or the error the experiment failed with. A failure or rejected
// observation (non-finite, or outside GuardSigma) retries the point up
// to RetryBudget more times, then skips it. Tell without an outstanding
// point is a no-op.
func (s *Session) Tell(y, cost float64, err error) {
	if s.x == nil {
		return
	}
	if err != nil {
		s.lastErr = fmt.Errorf("al: oracle at row %d: %w", s.row, err)
	}
	guard := 0.0 // seeds pass any finite observation
	if s.iter > 0 {
		guard = s.c.GuardSigma
	}
	if vet(s.attempts, s.iter, s.row, y, err, guard, s.pred, regObsNoise(s.model)) {
		s.accept(y, cost)
		return
	}
	if s.tries < s.c.RetryBudget {
		alRetries.Inc()
		s.tries++
		return
	}
	// Retry budget exhausted: skip the point. A skipped AL iteration
	// leaves the model unchanged and emits no record.
	alSkipped.Inc()
	obs.Emit("al.candidate.skipped", map[string]any{"iter": s.iter, "row": s.row})
	s.x = nil
	if s.iter == 0 {
		s.seeds = s.seeds[1:]
	}
}

// Result returns the realization so far, complete once Next returns a
// nil x. Records carry NaN RMSE: online there is no held-out truth.
func (s *Session) Result() Result {
	res := s.res
	res.Final = s.model
	return res
}

// ask makes row the outstanding point.
func (s *Session) ask(row int) {
	s.row = row
	s.x = append([]float64(nil), s.candidates.RawRow(row)...)
	s.tries = 0
}

// advance moves to the next point to measure, or ends the session.
func (s *Session) advance() error {
	if len(s.seeds) > 0 {
		s.ask(s.seeds[0])
		return nil
	}
	if len(s.trainY) == 0 {
		if s.lastErr != nil {
			return fmt.Errorf("al: every seed experiment failed: %w", s.lastErr)
		}
		return errors.New("al: every seed experiment failed")
	}
	if s.iter >= s.c.Iterations {
		s.done = true
		return nil
	}
	s.iter++
	return s.iterate()
}

// iterate runs one AL iteration up to the selection: update the model
// with what the last iteration measured, score the grid, select.
func (s *Session) iterate() error {
	c := &s.c
	iterCtx, iterSpan := obs.Start(context.Background(), "al.iteration")
	defer iterSpan.End()
	iterSpan.SetAttr("iter", s.iter)
	reopt := s.model == nil || (s.iter-1)%c.ReoptimizeEvery == 0
	updateCtx, updateSpan := obs.Start(iterCtx, "al.model.update")
	var err error
	if reopt {
		refits.Inc()
		gcfg := refitConfig(c, s.candidates.Cols(), len(s.trainY), s.model)
		var deg gp.Degradation
		s.model, deg, err = s.fitter.refit(updateCtx, gcfg, mat.NewFromRows(s.trainX), s.trainY, s.model, s.rng)
		if err == nil && deg.Rejected > 0 {
			// Keep the training set aligned with the degraded model:
			// drop the same trailing observations.
			alRejected.Add(int64(deg.Rejected))
			s.trainX = s.trainX[:len(s.trainX)-deg.Rejected]
			s.trainY = s.trainY[:len(s.trainY)-deg.Rejected]
		}
	} else if s.hasPending {
		// O(n²) conditioning on the newest measurement.
		conditionUpdates.Inc()
		last := len(s.trainY) - 1
		var m Regressor
		if m, err = s.model.UpdateWithPoint(s.trainX[last], s.trainY[last]); err == nil {
			s.model = m
		}
	}
	updated := reopt || s.hasPending
	s.hasPending = false
	updateSpan.End()
	if err != nil {
		return fmt.Errorf("al: online iteration %d: %w", s.iter, err)
	}
	if updated && c.OnModel != nil {
		c.OnModel(s.model)
	}

	_, scoreSpan := obs.Start(iterCtx, "al.score")
	preds := scorePool(s.model, s.candidates, resolveScoreWorkers(c.ScoreWorkers))
	cands := make([]Candidate, len(preds))
	var amsd float64
	for i := range cands {
		cands[i] = Candidate{Row: i, X: s.candidates.RawRow(i), Pred: preds[i]}
		amsd += preds[i].SD
	}
	amsd /= float64(len(cands))
	scoreSpan.End()
	candidatesEvaluated.Add(int64(len(cands)))
	poolSize.Set(float64(len(cands)))

	_, selectSpan := obs.Start(iterCtx, "al.select")
	sel := selectCandidate(c.Strategy, s.model, cands, s.rng)
	selectSpan.End()
	if sel < 0 || sel >= len(cands) {
		return fmt.Errorf("al: strategy %s returned invalid index %d", c.Strategy.Name(), sel)
	}
	// Only the chosen candidate outlives the iteration, so a session
	// waiting on a measurement does not hold the m-entry cands slice.
	s.ask(sel)
	s.pred = cands[sel].Pred
	s.amsd = amsd
	return nil
}

// accept adds the outstanding point's measurement to the training set
// and, for an AL selection, records the iteration and applies the stop
// rules.
func (s *Session) accept(y, cost float64) {
	experiments.Inc()
	s.trainX = append(s.trainX, s.x)
	s.trainY = append(s.trainY, y)
	s.cumCost += cost
	s.x = nil
	if s.iter == 0 {
		s.seeds = s.seeds[1:]
		return
	}
	s.hasPending = true
	s.res.Records = append(s.res.Records, IterationRecord{
		Iter:     s.iter,
		Row:      s.row,
		SDChosen: s.pred.SD,
		AMSD:     s.amsd,
		RMSE:     math.NaN(),
		CumCost:  s.cumCost,
		LML:      regLML(s.model),
		Noise:    regNoise(s.model),
		Train:    len(s.trainY),
	})
	s.res.TrainRows = append(s.res.TrainRows, s.row)

	// Budget exhaustion (§I's fixed-allocation constraint), mirroring
	// the offline loop: the crossing experiment is still recorded.
	if s.done = s.c.CostBudget > 0 && s.cumCost >= s.c.CostBudget; s.done {
		return
	}
	s.amsdHist = append(s.amsdHist, s.amsd)
	s.res.Converged = amsdConverged(s.amsdHist, s.c.ConvergeWindow, s.c.ConvergeTol)
	s.done = s.res.Converged
}
