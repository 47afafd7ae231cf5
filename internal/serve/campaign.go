package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/al"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Campaign-level metrics (see OBSERVABILITY.md).
var (
	campaignsActive   = obs.G("serve.campaign.active")
	campaignsDone     = obs.C("serve.campaign.done")
	campaignsFailed   = obs.C("serve.campaign.failed")
	campaignsStopped  = obs.C("serve.campaign.stopped")
	observationsCount = obs.C("serve.observe.count")
	observeDuplicates = obs.C("serve.observe.duplicates")
	resumeSnapshots   = obs.C("serve.resume.snapshot")
	resumeFull        = obs.C("serve.resume.full")
	resumeTail        = obs.H("serve.resume.tail", 0, 1, 4, 16, 32, 64, 256)
)

// snapshotEvery is the snapshot cadence in journaled observations: a
// resume replays at most this many observations past the newest
// snapshot (plus those of a step the session had not finished).
const snapshotEvery = 32

// Errors surfaced to HTTP clients with specific status codes.
var (
	// ErrNoPending means no suggestion is outstanding (the campaign is
	// replaying its journal, measuring its dataset, or terminal).
	ErrNoPending = errors.New("serve: no suggestion pending")
	// ErrSeqMismatch means the observation's sequence number does not
	// fence the pending suggestion.
	ErrSeqMismatch = errors.New("serve: suggestion sequence mismatch")
	// ErrClosed means the campaign actor has shut down.
	ErrClosed = errors.New("serve: campaign closed")
	// ErrNoModel means no model has been fitted yet (observe the seed
	// experiments first).
	ErrNoModel = errors.New("serve: campaign has no fitted model yet")
)

// campaignState is every mutable field of a campaign. Only the actor
// goroutine touches it; handlers reach it through closures sent over
// the mailbox.
type campaignState struct {
	state        string
	sess         *al.Session
	model        al.Regressor
	modelVersion int
	journal      []Observation
	replay       []Observation // journal entries not yet folded through sess
	pending      *Suggestion   // the point the session waits to be told about
	seq          int
	stepping     bool // the actor owes sess a step
	err          error

	// snapN is the observation count the newest snapshot written or
	// restored covers (0: none yet).
	snapN int

	// idem maps idempotency keys to the seq their observation was
	// applied at; rebuilt from the journal on resume so retries across
	// a crash still dedup.
	idem map[string]int
}

// Campaign is one live AL campaign: an al.Session driven by the actor
// goroutine that owns all campaign state. All exported methods are safe
// for concurrent use from any goroutine.
type Campaign struct {
	ID string
	// Spec is the spec the campaign was created from, less its
	// Candidates: newCampaign drops the decoded grid once it has built
	// the candidate matrix, so a live campaign does not hold the grid
	// twice. The journal header, written before, keeps the full spec.
	Spec CampaignSpec

	// jw is the append-only journal (nil disables persistence) — the
	// Store-issued Appender this campaign owns. It is touched only from
	// the actor goroutine, so it needs no lock; the actor closes it on
	// exit. jbreaker (shared across the manager's campaigns) fails
	// journal appends fast when the backing store is sick.
	jw       Appender
	jbreaker *resilience.Breaker

	cands    *mat.Dense
	response string
	ds       *dataset.Dataset // nil for client-sourced campaigns
	rows     map[string]int   // x-key → dataset row, dataset source only

	// Fingerprint expectation carried from a checkpoint into the replay
	// (0 = no expectation).
	resumeVersion int
	resumeFP      uint64

	mailbox chan func(*campaignState)
	ended   chan struct{} // closed when the campaign reaches a terminal state
	closed  chan struct{} // closed by close(): actor exits

	// lifecycle guards ONLY the closed flag, never campaign state: a
	// send may not race the actor's exit, so doCtx() holds the read lock
	// across the mailbox send and close() takes the write lock before
	// closing. State itself stays mailbox-owned and mutex-free.
	lifecycle sync.RWMutex
	isClosed  bool
}

// newCampaign builds a campaign (fresh or resumed) and starts its
// actor. jw is the open journal appender (nil disables persistence; the
// campaign takes ownership and closes it); info is the loaded journal a
// resumed campaign restores and replays (nil for a fresh campaign),
// whose observation pin and snapshot pins guard the rebuild.
func newCampaign(id string, spec CampaignSpec, jw Appender, jbreaker *resilience.Breaker, info *JournalInfo) (*Campaign, error) {
	c := &Campaign{
		ID:       id,
		Spec:     spec,
		jw:       jw,
		jbreaker: jbreaker,
		mailbox:  make(chan func(*campaignState), 16),
		ended:    make(chan struct{}),
		closed:   make(chan struct{}),
	}
	var journal []Observation
	if info != nil {
		journal = info.Observations
		c.resumeVersion, c.resumeFP = info.ModelVersion, info.Fingerprint
	}
	switch spec.Source {
	case "client":
		c.cands = mat.NewFromRows(spec.Candidates)
		c.response = "y"
		c.Spec.Candidates = nil
	case "dataset":
		ds, response, err := lookupDataset(*spec.Dataset)
		if err != nil {
			return nil, err
		}
		all := make([]int, ds.Len())
		for i := range all {
			all[i] = i
		}
		c.ds = ds
		c.response = response
		c.cands = ds.Matrix(all)
		c.rows = make(map[string]int, ds.Len())
		for i := ds.Len() - 1; i >= 0; i-- {
			// First matching row wins on duplicate inputs, so lookup is
			// deterministic.
			c.rows[xKey(c.cands.RawRow(i))] = i
		}
	default:
		return nil, fmt.Errorf("%w: unknown source %q", ErrSpec, spec.Source)
	}

	// seq continues across resume: journal entry i consumed seq i+1 in
	// the life that wrote it, so the first post-resume suggestion gets
	// seq len(journal)+1 — suggestion numbering (and the idempotency
	// keys clients derive from it) is as crash-transparent as the
	// suggestion stream itself.
	st := &campaignState{
		state:    StateRunning,
		journal:  journal,
		replay:   journal,
		idem:     make(map[string]int),
		seq:      len(journal),
		stepping: true,
	}
	if len(journal) > 0 {
		st.state = StateReplaying
	}
	// Rebuild the idempotency index: a key retried across the crash
	// answers with the seq its observation originally consumed.
	for i, o := range journal {
		if o.Key != "" {
			st.idem[o.Key] = i + 1
		}
	}
	cfg, err := c.Spec.loopConfig(c.response)
	if err != nil {
		return nil, err
	}
	cfg.OnModel = func(m al.Regressor) {
		st.model = m
		st.modelVersion++
	}
	// A nil rng: the session owns a counting RNG seeded from Spec.Seed,
	// so its snapshots can record the stream position.
	if st.sess, err = al.NewSession(c.cands, c.Spec.Seeds, cfg, nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	go c.actor(st, cfg, info)
	return c, nil
}

// actor executes mailbox closures one at a time until close(), and
// steps the session whenever it owes one. Work queued during a step is
// served before the next step, so neither starves the other. A resumed
// campaign (info non-nil) first restores its session, configured by
// cfg, from one of the journal's snapshots.
func (c *Campaign) actor(st *campaignState, cfg al.LoopConfig, info *JournalInfo) {
	defer func() {
		if c.jw != nil {
			c.jw.Close()
		}
	}()
	if info != nil {
		c.restore(st, cfg, info.Snapshots)
	}
	for {
		if st.stepping {
			// Let the goroutines the last closure woke — an observe
			// handler with its ack — run before the step takes the CPU.
			runtime.Gosched()
			c.step(st)
			for n := len(c.mailbox); n > 0; n-- {
				(<-c.mailbox)(st)
			}
			continue
		}
		select {
		case fn := <-c.mailbox:
			fn(st)
		case <-c.closed:
			// close() holds the write lock while closing, so no sender
			// is mid-send now and none will start: drain what is queued
			// and exit.
			for {
				select {
				case fn := <-c.mailbox:
					fn(st)
				default:
					return
				}
			}
		}
	}
}

// doCtx runs fn on the actor goroutine and waits for it: ErrClosed when
// the campaign is closed, ctx.Err() when ctx expires while queueing
// for the mailbox or while waiting for fn to finish.
// If the closure has not STARTED by then it is abandoned (the actor
// skips it); if it is already running, it completes — so a ctx error
// may mean "applied but unconfirmed", the ambiguity idempotency keys
// exist to resolve.
func (c *Campaign) doCtx(ctx context.Context, fn func(*campaignState)) error {
	c.lifecycle.RLock()
	if c.isClosed {
		c.lifecycle.RUnlock()
		return ErrClosed
	}
	done := make(chan struct{})
	var abandoned atomic.Bool
	wrapped := func(st *campaignState) {
		defer close(done)
		if abandoned.Load() {
			return
		}
		fn(st)
	}
	select {
	case c.mailbox <- wrapped:
		c.lifecycle.RUnlock()
	case <-ctx.Done():
		c.lifecycle.RUnlock()
		return ctx.Err()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		abandoned.Store(true)
		return ctx.Err()
	}
}

// restore rebuilds a resumed campaign's session from the newest
// journal snapshot that decodes and validates, so that only the
// observations after it replay through the session. A snapshot that
// fails gives way to the one before it, and with none left the whole
// journal replays. A restored model whose fingerprint differs from the
// snapshot's pin fails the campaign, as a diverged replay does.
func (c *Campaign) restore(st *campaignState, cfg al.LoopConfig, snapshots []Snapshot) {
	for i := len(snapshots) - 1; i >= 0; i-- {
		snap := snapshots[i]
		var ck al.Checkpoint
		err := json.Unmarshal(snap.Session, &ck)
		var sess *al.Session
		if err == nil {
			sess, err = al.RestoreSession(c.cands, cfg, &ck)
		}
		if err != nil {
			obs.Emit("serve.resume.snapshot.invalid", map[string]any{"campaign": c.ID, "n": snap.N, "err": err.Error()})
			continue
		}
		st.sess, st.model, st.modelVersion = sess, sess.Result().Final, snap.ModelVersion
		st.replay, st.snapN = st.journal[snap.N:], snap.N
		if len(st.replay) == 0 {
			st.state = StateRunning
		}
		resumeSnapshots.Inc()
		resumeTail.Observe(float64(len(st.replay)))
		fp := st.model.Fingerprint()
		if fp != snap.Fingerprint {
			c.integrityFailure(st, fmt.Errorf("serve: snapshot after %d observations restored a model other than the one it pinned", snap.N), map[string]any{
				"snapshot": snap.N,
				"version":  snap.ModelVersion,
				"want":     strconv.FormatUint(snap.Fingerprint, 16),
				"got":      strconv.FormatUint(fp, 16),
			})
		} else {
			c.checkResumePin(st)
		}
		return
	}
	resumeFull.Inc()
	resumeTail.Observe(float64(len(st.journal)))
}

// checkResumePin fails a resumed campaign whose model, at the version
// the journal's last observation pinned, has another fingerprint, and
// reports whether the campaign passed.
func (c *Campaign) checkResumePin(st *campaignState) bool {
	if c.resumeFP == 0 || st.modelVersion != c.resumeVersion {
		return true
	}
	if fp := st.model.Fingerprint(); fp != c.resumeFP {
		c.integrityFailure(st, fmt.Errorf("serve: resume replay diverged from checkpoint fingerprint (version %d)", c.resumeVersion), map[string]any{
			"version": st.modelVersion,
			"want":    strconv.FormatUint(c.resumeFP, 16),
			"got":     strconv.FormatUint(fp, 16),
		})
		return false
	}
	return true
}

// step advances the session by one point. Next runs the model update
// and selection; a replaying campaign then answers the point from its
// journal and a dataset campaign from its dataset, while a client
// campaign publishes it as the pending suggestion and waits for the
// observe that answers it. Every snapshotEvery observations the session
// is snapshotted at the boundary before Next; the snapshot is written
// once Next has shown the session goes on (an ending session writes its
// snapshot with the terminal line instead).
func (c *Campaign) step(st *campaignState) {
	snap := c.dueSnapshot(st)
	version := st.modelVersion
	x, err := st.sess.Next()
	if st.modelVersion != version && !c.checkResumePin(st) {
		return
	}
	if snap != nil && x != nil {
		c.appendSnapshot(st, *snap, nil)
	}
	switch {
	case err != nil:
		c.finish(st, StateFailed, err)
	case x == nil:
		c.finish(st, StateDone, nil)
	case len(st.replay) > 0:
		e := st.replay[0]
		if e.X != nil && xKey(e.X) != xKey(x) {
			entry := len(st.journal) - len(st.replay)
			c.integrityFailure(st, fmt.Errorf("serve: resume replay diverged from journal entry %d: journaled x %v, replay asked for %v", entry, e.X, x), map[string]any{
				"entry": entry, "want": e.X, "got": x,
			})
			return
		}
		if st.replay = st.replay[1:]; len(st.replay) == 0 {
			st.state = StateRunning
		}
		st.sess.Tell(float64(e.Y), float64(e.Cost), nil)
	case c.ds != nil:
		c.lookup(st, x)
	default:
		st.seq++
		st.pending = &Suggestion{Seq: st.seq, X: x}
		st.state = StateWaiting
		st.stepping = false
	}
}

// lookup answers x from the campaign's dataset, journaling the
// observation before the session learns it.
func (c *Campaign) lookup(st *campaignState, x []float64) {
	row, ok := c.rows[xKey(x)]
	if !ok {
		st.sess.Tell(0, 0, fmt.Errorf("serve: suggested point not in dataset grid: %v", x))
		return
	}
	y, cost := c.ds.RespAt(c.response, row), c.ds.CostAt(row)
	o := Observation{X: append([]float64(nil), x...), Y: al.JSONFloat(y), Cost: al.JSONFloat(cost)}
	if err := c.appendJournal(st, o); err != nil {
		// Skipping one entry would corrupt replay order, so stop
		// journaling entirely: the valid prefix still replays and
		// resume re-measures the rest from the dataset.
		if c.jw != nil {
			c.jw.Disable()
		}
		obs.Emit("serve.journal.disabled", map[string]any{"campaign": c.ID, "err": err.Error()})
	}
	st.journal = append(st.journal, o)
	observationsCount.Inc()
	st.sess.Tell(y, cost, nil)
}

// integrityFailure fails a resumed campaign whose replay no longer
// matches what its journal recorded.
func (c *Campaign) integrityFailure(st *campaignState, err error, attrs map[string]any) {
	attrs["campaign"] = c.ID
	obs.Emit("serve.resume.integrity", attrs)
	c.finish(st, StateFailed, err)
}

// dueSnapshot returns a snapshot of the session when one is due: the
// journal is live (nothing left to replay), snapshotEvery observations
// have been journaled since the last snapshot, and the session is at an
// iteration boundary.
func (c *Campaign) dueSnapshot(st *campaignState) *Snapshot {
	if c.jw == nil || len(st.replay) > 0 || len(st.journal)-st.snapN < snapshotEvery {
		return nil
	}
	return c.snapshot(st)
}

// snapshot encodes the session's checkpoint as a journal snapshot of
// every observation so far; nil when the session cannot snapshot.
func (c *Campaign) snapshot(st *campaignState) *Snapshot {
	ck, ok := st.sess.Snapshot()
	if !ok {
		return nil
	}
	raw, err := json.Marshal(ck)
	if err != nil {
		obs.Emit("serve.journal.error", map[string]any{"campaign": c.ID, "err": err.Error()})
		return nil
	}
	return &Snapshot{N: len(st.journal), ModelVersion: st.modelVersion, Fingerprint: st.model.Fingerprint(), Session: raw}
}

// appendSnapshot writes a snapshot line (with the terminal line when
// final is non-nil). It is best effort: a failure costs resume time,
// never an observation.
func (c *Campaign) appendSnapshot(st *campaignState, snap Snapshot, final *Final) error {
	err := c.jw.AppendSnapshot(snap, final)
	if err != nil {
		journalAppendErrs.Inc()
		obs.Emit("serve.journal.error", map[string]any{"campaign": c.ID, "err": err.Error()})
		return err
	}
	st.snapN = snap.N
	return nil
}

// finish moves the campaign to a terminal state and flushes the final
// journal line.
func (c *Campaign) finish(st *campaignState, state string, err error) {
	st.state, st.err = state, err
	st.pending = nil
	st.stepping = false
	switch state {
	case StateDone:
		campaignsDone.Inc()
	case StateFailed:
		campaignsFailed.Inc()
	case StateStopped:
		campaignsStopped.Inc()
	}
	c.appendFinal(st)
	obs.Emit("serve.campaign.finished", map[string]any{
		"campaign": c.ID, "state": st.state, "records": len(st.sess.Result().Records),
	})
	close(c.ended)
}

// appendFinal writes the terminal journal line (best effort: a failure
// only costs the informational trailer, never the observations). A
// campaign that did not fail, with its journal replayed and its session
// at a boundary no snapshot covers yet, writes a snapshot in the same
// write, so a resume restores it without replaying anything.
func (c *Campaign) appendFinal(st *campaignState) {
	if c.jw == nil {
		return
	}
	var fp uint64
	if st.model != nil {
		fp = st.model.Fingerprint()
	}
	errMsg := ""
	if st.err != nil {
		errMsg = st.err.Error()
	}
	converged := st.sess.Result().Converged
	if st.state != StateFailed && len(st.replay) == 0 && st.snapN < len(st.journal) {
		final := &Final{State: st.state, Converged: converged, ModelVersion: st.modelVersion, Fingerprint: fp}
		if snap := c.snapshot(st); snap != nil && c.appendSnapshot(st, *snap, final) == nil {
			return
		}
	}
	if err := c.jw.AppendFinal(st.state, errMsg, converged, st.modelVersion, fp); err != nil {
		journalAppendErrs.Inc()
		obs.Emit("serve.journal.error", map[string]any{"campaign": c.ID, "err": err.Error()})
	}
}

// Stop moves a campaign that is not yet terminal straight to
// "stopped", dropping any pending suggestion and flushing the terminal
// journal line; the journal resumes it later. A step in progress
// finishes first, unless ctx expires. Safe to call more than once.
func (c *Campaign) Stop(ctx context.Context) error {
	return c.doCtx(ctx, func(st *campaignState) {
		if !terminal(st.state) {
			c.finish(st, StateStopped, nil)
		}
	})
}

// close shuts the actor down. Callers must Stop first (Manager.Release
// and Shutdown do); afterwards every Campaign method returns ErrClosed.
func (c *Campaign) close() {
	c.lifecycle.Lock()
	defer c.lifecycle.Unlock()
	if !c.isClosed {
		c.isClosed = true
		close(c.closed)
	}
}

// Wait blocks until the campaign has reached a terminal state.
func (c *Campaign) Wait() { <-c.ended }

// Suggest returns the pending suggestion, ErrNoPending when none is
// outstanding, or ErrClosed. A suggest that arrives while the actor is
// selecting the next point waits for it in the mailbox.
func (c *Campaign) Suggest() (Suggestion, error) {
	return c.SuggestCtx(context.Background())
}

// SuggestCtx is Suggest with deadline propagation.
func (c *Campaign) SuggestCtx(ctx context.Context) (Suggestion, error) {
	var out Suggestion
	var err error
	if derr := c.doCtx(ctx, func(st *campaignState) {
		if st.pending == nil {
			err = fmt.Errorf("%w (state %s)", ErrNoPending, st.state)
			return
		}
		out = Suggestion{Seq: st.pending.Seq, X: append([]float64(nil), st.pending.X...)}
	}); derr != nil {
		return Suggestion{}, derr
	}
	return out, err
}

// Observe applies a measurement to the pending suggestion identified by
// seq. See ObserveKeyed.
func (c *Campaign) Observe(seq int, y, cost float64) error {
	_, err := c.ObserveKeyed(context.Background(), seq, y, cost, "")
	return err
}

// ObserveKeyed applies a measurement to the pending suggestion
// identified by seq, with deadline propagation and idempotent retries.
// The observation is journaled (write+fsync) BEFORE the session learns
// it and before the call returns, so an acknowledged observation is
// durable — and a journal append failure REJECTS the observation
// (ErrJournal → HTTP 503) without telling the session, so an
// observation is never acknowledged unjournaled. key, when non-empty,
// dedups retries: resubmitting an already-applied key returns the seq it was
// applied at instead of a seq-mismatch error, which makes at-least-once
// delivery (retries after lost responses, duplicated requests) safe.
func (c *Campaign) ObserveKeyed(ctx context.Context, seq int, y, cost float64, key string) (int, error) {
	applied := seq
	var err error
	if derr := c.doCtx(ctx, func(st *campaignState) {
		if key != "" {
			if prev, ok := st.idem[key]; ok {
				applied = prev
				observeDuplicates.Inc()
				return
			}
		}
		if st.pending == nil {
			err = fmt.Errorf("%w (state %s)", ErrNoPending, st.state)
			return
		}
		if st.pending.Seq != seq {
			err = fmt.Errorf("%w: got seq %d, pending is %d", ErrSeqMismatch, seq, st.pending.Seq)
			return
		}
		o := Observation{
			X:    append([]float64(nil), st.pending.X...),
			Y:    al.JSONFloat(y),
			Cost: al.JSONFloat(cost),
			Key:  key,
		}
		if err = c.appendJournal(st, o); err != nil {
			return
		}
		st.journal = append(st.journal, o)
		if key != "" {
			st.idem[key] = seq
		}
		st.pending = nil
		st.state = StateRunning
		st.sess.Tell(y, cost, nil)
		st.stepping = true
	}); derr != nil {
		if errors.Is(derr, ErrClosed) {
			return 0, ErrClosed
		}
		return 0, derr
	}
	if err == nil {
		observationsCount.Inc()
	}
	return applied, err
}

// appendJournal durably appends one observation (through the journal
// breaker when one is wired). Runs on the actor goroutine.
func (c *Campaign) appendJournal(st *campaignState, o Observation) error {
	if c.jw == nil {
		return nil
	}
	var fp uint64
	if st.model != nil {
		fp = st.model.Fingerprint()
	}
	op := func() error { return c.jw.AppendObs(o, st.modelVersion, fp) }
	var err error
	if c.jbreaker != nil {
		err = c.jbreaker.Do(op)
	} else {
		err = op()
	}
	if err != nil {
		journalAppendErrs.Inc()
		obs.Emit("serve.journal.error", map[string]any{"campaign": c.ID, "err": err.Error()})
		if errors.Is(err, resilience.ErrOpen) {
			return err
		}
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	journalAppends.Inc()
	return nil
}

// Model returns the current model snapshot and its version for
// prediction. The returned Regressor is immutable; callers may use it
// concurrently.
func (c *Campaign) Model() (al.Regressor, int, error) {
	var m al.Regressor
	var v int
	if err := c.doCtx(context.Background(), func(st *campaignState) { m, v = st.model, st.modelVersion }); err != nil {
		return nil, 0, err
	}
	if m == nil {
		return nil, 0, ErrNoModel
	}
	return m, v, nil
}

// Records returns a copy of the iteration records so far.
func (c *Campaign) Records() ([]al.IterationRecord, error) {
	var out []al.IterationRecord
	if err := c.doCtx(context.Background(), func(st *campaignState) {
		out = append(out, st.sess.Result().Records...)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Status snapshots the campaign for the HTTP API. withRecords controls
// whether the full per-iteration history is included (list views leave
// it out).
func (c *Campaign) Status(withRecords bool) (CampaignStatus, error) {
	return c.StatusCtx(context.Background(), withRecords)
}

// StatusCtx is Status with deadline propagation.
func (c *Campaign) StatusCtx(ctx context.Context, withRecords bool) (CampaignStatus, error) {
	strat, _ := c.Spec.strategy()
	out := CampaignStatus{
		ID:       c.ID,
		Name:     c.Spec.Name,
		Source:   c.Spec.Source,
		Strategy: strat.Name(),
	}
	if derr := c.doCtx(ctx, func(st *campaignState) {
		res := st.sess.Result()
		out.State = st.state
		out.Observations = len(st.journal)
		out.ModelVersion = st.modelVersion
		out.Converged = res.Converged
		if st.model != nil {
			out.Fingerprint = st.model.Fingerprint()
		}
		if st.pending != nil {
			out.Pending = &Suggestion{Seq: st.pending.Seq, X: append([]float64(nil), st.pending.X...)}
		}
		if st.err != nil {
			out.Error = st.err.Error()
		}
		if withRecords {
			out.Records = make([]al.JSONRecord, len(res.Records))
			for i, r := range res.Records {
				out.Records[i] = al.ToJSONRecord(r)
			}
		}
	}); derr != nil {
		return CampaignStatus{}, derr
	}
	return out, nil
}

// terminal reports whether a campaign in state has ended.
func terminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateStopped:
		return true
	}
	return false
}

// xKey encodes an input point as the exact bit pattern of its
// coordinates — the dataset row lookup and prediction cache key must
// distinguish points that differ in the last ulp.
func xKey(x []float64) string {
	var b strings.Builder
	b.Grow(17 * len(x))
	for _, v := range x {
		b.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
		b.WriteByte(',')
	}
	return b.String()
}
