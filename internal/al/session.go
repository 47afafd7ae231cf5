package al

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
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
	return s.drive(func(_ int, x []float64, _ int) (float64, float64, error) {
		_, span := obs.Start(context.Background(), "al.experiment")
		defer span.End()
		return oracle.RunExperiment(x)
	})
}

// Session is the AL loop as an ask/tell state machine. Next asks for
// the point to measure, Tell reports the outcome. The session owns the
// RNG, model, training set, candidate pool, records and attempt counts,
// and applies the retry, guard, skip, budget and convergence rules, so
// every driver — Run and Resume over a dataset, RunOnline, a served
// campaign, a journal replay — produces the same trace for the same
// answers. A Session is not safe for concurrent use.
type Session struct {
	c          LoopConfig
	candidates *mat.Dense
	// pool lists the candidate rows open for selection, in order; nil
	// opens the whole grid, scored in place. Only a dataset session has
	// one: a skipped row always leaves it, an accepted row leaves it
	// unless AllowRevisit is set.
	pool   []int
	seeds  []int // seed rows not yet settled
	rng    *rand.Rand
	cs     *countingSource // position of a session-owned RNG, for checkpoints
	fitter modelFitter
	// points indexes the distinct points of candidates, built by the
	// first scoring pass; the candidates determine it, so checkpoints
	// leave it out.
	points *pointIndex
	// kstar caches k(p, x_j) for every distinct point p of the grid
	// and training row j of a dense model's lineage, so a pass after a
	// bordered update evaluates one new column (see predict). Memory
	// only: checkpoints, snapshots and journals leave it out.
	kstar *gp.KStar

	// testX/testY is the held-out set behind each record's RMSE and
	// Coverage (both NaN without one).
	testX *mat.Dense
	testY []float64

	train      []int // candidate row of each training observation
	trainY     []float64
	nSeeds     int // leading training rows measured as seeds, left out of TrainRows
	cumCost    float64
	attempts   map[int]int // candidate row → measurement attempts so far
	lastErr    error       // most recent oracle failure, for the all-seeds-failed error
	model      Regressor
	hasPending bool // newest observation not yet conditioned into model
	amsdHist   []float64
	res        Result

	// The recipe a checkpoint rebuilds the model from: hyperparameters
	// and log σn of the last refit and the training prefix it covered.
	refitHyper []float64
	refitLogSN float64
	refitN     int

	// The outstanding ask (x is nil when there is none); iter is 0 while
	// seeds are measured, sel, pred and amsd describe an AL selection.
	iter  int
	row   int
	sel   int // position of row in pool
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
// repeated measurement. With a nil rng the session owns a counting RNG
// seeded from cfg.Seed (default 1), stream-identical to
// rand.New(rand.NewSource(cfg.Seed)), which Snapshot records.
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
	var cs *countingSource
	if rng == nil {
		rng, cs = newCountingRand(c.Seed, 0)
	}
	s := newSession(c, candidates, candidates.Rows(), rng)
	s.cs = cs
	s.seeds = seeds
	return s, nil
}

// newSession is the state every session starts from; iterations is the
// default iteration bound.
func newSession(c LoopConfig, candidates *mat.Dense, iterations int, rng *rand.Rand) *Session {
	if c.Iterations <= 0 {
		c.Iterations = iterations
	}
	return &Session{
		c:          c,
		candidates: candidates,
		rng:        rng,
		fitter:     newModelFitter(c),
		attempts:   map[int]int{},
		res:        Result{Strategy: c.Strategy.Name()},
	}
}

// newDatasetSession prepares the session behind Run and Resume: every
// dataset row is a candidate (so a candidate index is a dataset row),
// the partition's Test set fills RMSE and Coverage, and the iteration
// bound defaults to the size of the Active pool. The caller installs
// the training set and the pool.
func newDatasetSession(ds *dataset.Dataset, part dataset.Partition, c LoopConfig, rng *rand.Rand, cs *countingSource) *Session {
	s := newSession(c, ds.Matrix(nil), len(part.Active), rng)
	s.cs = cs
	if len(part.Test) > 0 {
		s.testX = ds.Matrix(part.Test)
		s.testY = ds.RespVec(c.Response, part.Test)
	}
	return s
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
	if s.done {
		s.kstar = nil // an ended session scores no more
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
	// leaves the model unchanged and emits no record. The row leaves a
	// dataset pool: with the model unchanged, a deterministic strategy
	// would re-select it forever.
	alSkipped.Inc()
	obs.Emit("al.candidate.skipped", map[string]any{"iter": s.iter, "row": s.row})
	s.x = nil
	if s.iter == 0 {
		s.seeds = s.seeds[1:]
		return
	}
	s.leavePool()
}

// Result returns the realization so far, complete once Next returns a
// nil x.
func (s *Session) Result() Result {
	res := s.res
	res.Final = s.model
	res.TrainRows = s.train[s.nSeeds:]
	return res
}

// drive runs the session to completion, measuring every point it asks
// for with measure (attempt is the row's 0-based attempt count) and,
// for a dataset session (Run's, which has a pool) with a loop-owned RNG
// and LoopConfig.CheckpointPath set, saving a checkpoint every
// CheckpointEvery-th iteration.
func (s *Session) drive(measure func(row int, x []float64, attempt int) (y, cost float64, err error)) (Result, error) {
	for {
		x, err := s.Next()
		if err != nil {
			return Result{}, err
		}
		if x == nil {
			return s.Result(), nil
		}
		s.Tell(measure(s.row, x, s.attempts[s.row]))
		if s.x == nil && s.pool != nil && s.cs != nil && s.c.CheckpointPath != "" && s.iter%s.c.CheckpointEvery == 0 {
			if err := s.checkpoint().Save(s.c.CheckpointPath); err != nil {
				return Result{}, err
			}
		}
	}
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
	if s.iter >= s.c.Iterations || (s.pool != nil && len(s.pool) == 0) {
		s.done = true
		return nil
	}
	s.iter++
	return s.iterate()
}

// iterate runs one AL iteration up to the selection: update the model
// with what the last iteration measured, score the pool, select.
func (s *Session) iterate() error {
	c := &s.c
	iterCtx, iterSpan := obs.Start(context.Background(), "al.iteration")
	defer iterSpan.End()
	iterSpan.SetAttr("iter", s.iter)
	reopt := s.model == nil || (s.iter-1)%c.ReoptimizeEvery == 0
	updateCtx, updateSpan := obs.Start(iterCtx, "al.model.update")
	var err error
	if !reopt && s.hasPending {
		// O(n²) conditioning on the newest measurement.
		conditionUpdates.Inc()
		last := len(s.train) - 1
		var m Regressor
		if m, err = s.model.UpdateWithPoint(s.candidates.RawRow(s.train[last]), s.trainY[last]); err == nil {
			s.model = m
		}
	}
	if reopt || err != nil {
		// A refit step, or a degenerate update falling back down the
		// refit chain.
		err = s.refit(updateCtx)
	}
	updated := reopt || s.hasPending
	s.hasPending = false
	updateSpan.End()
	if err != nil {
		return fmt.Errorf("al: iteration %d: %w", s.iter, err)
	}
	if updated && c.OnModel != nil {
		c.OnModel(s.model)
	}

	_, scoreSpan := obs.Start(iterCtx, "al.score")
	cands := s.score(resolveScoreWorkers(c.ScoreWorkers))
	var amsd float64
	for _, cd := range cands {
		amsd += cd.Pred.SD
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
	s.ask(cands[sel].Row)
	s.sel = sel
	s.pred = cands[sel].Pred
	s.amsd = amsd
	return nil
}

// score predicts every open row — the whole grid, or a dataset
// session's pool — in pool order. Each distinct open point is predicted
// once, by predict, and its prediction copied to every row holding it.
// That is bit-identical to scoring every row, because a row's
// prediction depends only on its bits and the model (see Regressor).
func (s *Session) score(workers int) []Candidate {
	if s.points == nil {
		s.points = newPointIndex(s.candidates)
	}
	n := len(s.pool)
	if s.pool == nil {
		n = s.candidates.Rows()
	}
	openRow := func(i int) int {
		if s.pool == nil {
			return i
		}
		return s.pool[i]
	}
	// slot[k] is 1 + the position of point k among the distinct open
	// points pts, 0 while point k is not yet open.
	slot := make([]int32, len(s.points.firstRow))
	pts := make([]int32, 0, len(s.points.firstRow))
	for i := 0; i < n; i++ {
		if k := s.points.pointOf[openRow(i)]; slot[k] == 0 {
			pts = append(pts, k)
			slot[k] = int32(len(pts))
		}
	}
	scoreRows.Add(int64(len(pts)))
	preds := s.predict(pts, workers)
	cands := make([]Candidate, n)
	for i := range cands {
		row := openRow(i)
		cands[i] = Candidate{Row: row, X: s.candidates.RawRow(row), Pred: preds[slot[s.points.pointOf[row]]-1]}
	}
	return cands
}

// predict predicts the distinct points pts of the grid, bit-identical
// to scorePool over their rows with the given workers. A dense model
// (or an auto model resolved dense) is predicted from the session's
// K* cache when the cache covers it, and a pass builds a new cache when
// the next model update is scheduled to be incremental: then iterations
// remain and this one is not a multiple of ReoptimizeEvery. The cache
// is kept only for such an update; every other pass drops it, and one
// the cache cannot serve goes through scorePool. The cache covers every
// distinct point of the grid, indexed like s.points, and is split over
// the workers as scorePool splits its rows.
func (s *Session) predict(pts []int32, workers int) []gp.Prediction {
	keep := s.iter%s.c.ReoptimizeEvery != 0 && s.iter < s.c.Iterations
	g, dense := UnwrapGP(s.model)
	switch {
	case dense && s.kstar != nil && s.kstar.Covers(g):
		scoreCached.Inc()
	case dense && keep:
		scoreCacheBuilds.Inc()
		s.kstar = gp.NewKStar(s.candidates, s.points.firstRow)
	default:
		s.kstar = nil
		rows := make([]int, len(pts))
		for i, k := range pts {
			rows[i] = s.points.firstRow[k]
		}
		return scorePool(s.model, gatherRows(s.candidates, rows), workers)
	}
	if workers >= 2 && len(pts) >= minParallelScore {
		scoreParallel.Inc()
	}
	preds := s.kstar.Predict(g, pts, func(n int, fn func(lo, hi int)) { parChunks(n, workers, fn) })
	if !keep {
		s.kstar = nil
	}
	return preds
}

// refit fits the full training set through the configured tier's
// degradation chain, warm-started from the current model, and records
// the refit recipe. A degraded dense fit that rejected trailing
// observations drops them from the training set too, so model and
// session stay aligned; their rows go back to the end of a
// non-revisiting pool.
func (s *Session) refit(ctx context.Context) error {
	refits.Inc()
	gcfg := refitConfig(&s.c, s.candidates.Cols(), len(s.trainY), s.model)
	m, deg, err := s.fitter.refit(ctx, gcfg, gatherRows(s.candidates, s.train), s.trainY, s.model, s.rng)
	if err != nil {
		return err
	}
	if deg.Rejected > 0 {
		n := len(s.train) - deg.Rejected
		rows := append([]int(nil), s.train[n:]...)
		alRejected.Add(int64(deg.Rejected))
		obs.Emit("al.train.rejected", map[string]any{
			"iter": s.iter, "rows": rows, "level": deg.Level.String(),
		})
		if s.pool != nil && !s.c.AllowRevisit {
			s.pool = append(s.pool, rows...)
		}
		s.train, s.trainY = s.train[:n], s.trainY[:n]
		s.nSeeds = min(s.nSeeds, n)
	}
	s.model = m
	s.refitHyper, s.refitLogSN, s.refitN, err = modelRecipe(m)
	return err
}

// accept adds the outstanding point's measurement to the training set
// and, for an AL selection, records the iteration and applies the stop
// rules.
func (s *Session) accept(y, cost float64) {
	experiments.Inc()
	s.train = append(s.train, s.row)
	s.trainY = append(s.trainY, y)
	s.cumCost += cost
	s.x = nil
	if s.iter == 0 {
		s.seeds = s.seeds[1:]
		s.nSeeds++
		return
	}
	s.hasPending = true
	if !s.c.AllowRevisit {
		s.leavePool()
	}

	// Test-set error and CI coverage with the current model.
	rmse, coverage := math.NaN(), math.NaN()
	if len(s.testY) > 0 {
		preds := s.model.PredictBatch(s.testX)
		rmse = stats.RMSE(gp.Means(preds), s.testY)
		coverage = coverage95(regObsNoise(s.model), preds, s.testY)
	}
	s.res.Records = append(s.res.Records, IterationRecord{
		Iter:     s.iter,
		Row:      s.row,
		SDChosen: s.pred.SD,
		AMSD:     s.amsd,
		RMSE:     rmse,
		Coverage: coverage,
		CumCost:  s.cumCost,
		LML:      regLML(s.model),
		Noise:    regNoise(s.model),
		Train:    len(s.trainY),
	})

	// Budget exhaustion (§I's fixed-allocation constraint): the crossing
	// experiment is still recorded.
	if s.done = s.c.CostBudget > 0 && s.cumCost >= s.c.CostBudget; s.done {
		return
	}
	s.amsdHist = append(s.amsdHist, s.amsd)
	s.res.Converged = amsdConverged(s.amsdHist, s.c.ConvergeWindow, s.c.ConvergeTol)
	s.done = s.res.Converged
}

// leavePool removes the selected row from the pool, keeping order.
func (s *Session) leavePool() {
	if s.pool != nil {
		s.pool = append(s.pool[:s.sel], s.pool[s.sel+1:]...)
	}
}

// gatherRows copies the given rows of m into a new matrix.
func gatherRows(m *mat.Dense, rows []int) *mat.Dense {
	out := mat.New(len(rows), m.Cols())
	for i, r := range rows {
		copy(out.RawRow(i), m.RawRow(r))
	}
	return out
}
