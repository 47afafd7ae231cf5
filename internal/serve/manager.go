package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/al"
	"repro/internal/faults"
	"repro/internal/gp"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/resilience"
)

var (
	campaignsCreated = obs.C("serve.campaign.created")
	campaignsResumed = obs.C("serve.campaign.resumed")
	predictPoints    = obs.C("serve.predict.points")
	scoreQueueDepth  = obs.G("serve.score.queue")
)

// ErrNotFound reports an unknown campaign id.
var ErrNotFound = errors.New("serve: campaign not found")

// Config sizes the Manager.
type Config struct {
	// CheckpointDir persists one JSON journal per campaign via a
	// DirStore; "" disables persistence (campaigns die with the
	// process). Ignored when Store is set.
	CheckpointDir string

	// Store overrides the default persistence: campaign journals are
	// created, resumed, and removed through it. The cluster layer
	// injects a replicating store here; tests inject a MemStore.
	Store Store

	// CacheSize bounds the shared prediction LRU (default 4096 points).
	CacheSize int

	// ScoreWorkers is the per-scoring-call worker fan-out passed to
	// al.ScoreBatch (0 = the al package default, GOMAXPROCS).
	ScoreWorkers int

	// MaxConcurrentScores bounds how many scoring operations (predict
	// batches) run at once across ALL campaigns — the global worker-pool
	// throttle that keeps a burst of predict requests from oversubscribing
	// the cores the campaigns are fitting on (default GOMAXPROCS).
	MaxConcurrentScores int

	// ScoreBreaker and JournalBreaker tune the circuit breakers guarding
	// the scoring pool and journal appends (zero values take the
	// resilience defaults).
	ScoreBreaker   resilience.BreakerConfig
	JournalBreaker resilience.BreakerConfig

	// TornWrites injects deterministic torn journal appends — the chaos
	// knob behind the crash-mid-write suite. The zero value never tears.
	// Applies to the DirStore built from CheckpointDir; an explicit
	// Store carries its own tear configuration.
	TornWrites faults.TornWriteConfig
}

// Manager owns the campaign set, the shared prediction cache, and the
// global scoring throttle. All methods are safe for concurrent use.
type Manager struct {
	cfg   Config
	store Store // nil disables persistence
	cache *predCache
	sem   chan struct{}

	// scoreBreaker trips when the scoring pool is so backed up that
	// requests die waiting for a slot; journalBreaker trips when the
	// checkpoint disk is sick. Both fail fast (HTTP 503 + Retry-After)
	// instead of queueing doomed work.
	scoreBreaker   *resilience.Breaker
	journalBreaker *resilience.Breaker

	mu        sync.RWMutex
	campaigns map[string]*Campaign
	nextID    int
	closed    bool

	// drainDone closes when the first Shutdown call finishes draining;
	// drainErr (written before the close) carries its outcome to every
	// concurrent or later caller. See Shutdown.
	drainDone chan struct{}
	drainErr  error
}

// NewManager builds a Manager. Call ResumeAll afterwards to relaunch
// checkpointed campaigns.
func NewManager(cfg Config) *Manager {
	if cfg.MaxConcurrentScores <= 0 {
		cfg.MaxConcurrentScores = runtime.GOMAXPROCS(0)
	}
	store := cfg.Store
	if store == nil && cfg.CheckpointDir != "" {
		store = NewDirStore(cfg.CheckpointDir, cfg.TornWrites)
	}
	return &Manager{
		cfg:            cfg,
		store:          store,
		cache:          newPredCache(cfg.CacheSize),
		sem:            make(chan struct{}, cfg.MaxConcurrentScores),
		scoreBreaker:   resilience.NewBreaker("score", cfg.ScoreBreaker),
		journalBreaker: resilience.NewBreaker("journal", cfg.JournalBreaker),
		campaigns:      make(map[string]*Campaign),
	}
}

// Store returns the manager's persistence backend (nil when campaigns
// are not persisted). The cluster layer exports journals through it.
func (m *Manager) Store() Store { return m.store }

// BreakerStates reports the manager's circuit breaker states for
// /healthz.
func (m *Manager) BreakerStates() map[string]string {
	return map[string]string{
		"score":   m.scoreBreaker.State().String(),
		"journal": m.journalBreaker.State().String(),
	}
}

// Create validates the spec, assigns an id, and launches the campaign.
func (m *Manager) Create(spec CampaignSpec) (*Campaign, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	var id string
	for {
		m.nextID++
		id = fmt.Sprintf("c%04d", m.nextID)
		if _, taken := m.campaigns[id]; !taken {
			break
		}
	}
	return m.createLocked(id, spec)
}

// CreateWithID launches a campaign under a caller-chosen id. The
// cluster router uses it to assign cluster-unique ids before picking an
// owner replica; ids must stay unique per manager.
func (m *Manager) CreateWithID(id string, spec CampaignSpec) (*Campaign, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty campaign id", ErrSpec)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if _, taken := m.campaigns[id]; taken {
		return nil, fmt.Errorf("%w: campaign id %q already in use", ErrSpec, id)
	}
	m.bumpNextID(id)
	return m.createLocked(id, spec)
}

// createLocked launches a fresh campaign under an id the caller has
// verified to be free. Callers hold m.mu and have checked m.closed.
func (m *Manager) createLocked(id string, spec CampaignSpec) (*Campaign, error) {
	var app Appender
	if m.store != nil {
		var err error
		if app, err = m.store.Create(id, spec); err != nil {
			// A server configured for durability that cannot persist must
			// say so at create time, not lose campaigns at crash time.
			return nil, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	c, err := newCampaign(id, spec, app, m.journalBreaker, nil)
	if err != nil {
		if app != nil {
			app.Close()
		}
		return nil, err
	}
	m.campaigns[id] = c
	campaignsCreated.Inc()
	campaignsActive.Set(float64(len(m.campaigns)))
	obs.Emit("serve.campaign.created", map[string]any{"campaign": id, "source": spec.Source})
	return c, nil
}

// bumpNextID keeps fresh ids clear of externally assigned or resumed
// ones ("c0007" → nextID ≥ 7). Callers hold m.mu.
func (m *Manager) bumpNextID(id string) {
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "c")); err == nil && n > m.nextID {
		m.nextID = n
	}
}

// ResumeAll relaunches every campaign the store holds, in the store's
// deterministic id order; each campaign replays its journal and
// continues (or finishes) from the exact interrupted state. Returns the number of
// campaigns resumed; corrupt journals are skipped with an event rather
// than failing the boot.
func (m *Manager) ResumeAll() (int, error) {
	if m.store == nil {
		return 0, nil
	}
	ids, err := m.store.IDs()
	if err != nil {
		return 0, err
	}
	resumed := 0
	for _, id := range ids {
		if err := m.ResumeOne(id); err != nil {
			if errors.Is(err, ErrClosed) {
				return resumed, err
			}
			obs.Emit("serve.resume.skipped", map[string]any{"campaign": id, "err": err.Error()})
			continue
		}
		resumed++
	}
	return resumed, nil
}

// ResumeOne loads one persisted campaign from the store and relaunches
// it: the campaign replays the journal and continues from the
// interrupted state, with the checkpoint's fingerprint pinning replay
// integrity.
// Used at boot via ResumeAll and by the cluster layer when a node
// adopts a shipped campaign after failover or migration.
func (m *Manager) ResumeOne(id string) error {
	if m.store == nil {
		return errors.New("serve: manager has no store to resume from")
	}
	// Fast-path duplicate check before the store read; rechecked under
	// the lock after.
	m.mu.RLock()
	_, taken := m.campaigns[id]
	closed := m.closed
	m.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if taken {
		return fmt.Errorf("serve: campaign %q already active", id)
	}
	info, app, err := m.store.Load(id)
	if err != nil {
		return err
	}
	if info.ID != id {
		app.Close()
		return fmt.Errorf("serve: journal %q carries campaign id %q", id, info.ID)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		app.Close()
		return ErrClosed
	}
	if _, taken := m.campaigns[id]; taken {
		app.Close()
		return fmt.Errorf("serve: campaign %q already active", id)
	}
	c, err := newCampaign(id, info.Spec, app, m.journalBreaker, info)
	if err != nil {
		app.Close()
		return err
	}
	m.campaigns[id] = c
	m.bumpNextID(id)
	campaignsActive.Set(float64(len(m.campaigns)))
	campaignsResumed.Inc()
	obs.Emit("serve.campaign.resumed", map[string]any{
		"campaign": id, "observations": len(info.Observations),
	})
	return nil
}

// Get returns the campaign with the given id.
func (m *Manager) Get(id string) (*Campaign, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, ok := m.campaigns[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return c, nil
}

// List returns all campaigns sorted by id (natural order, matching the
// store scan order).
func (m *Manager) List() []*Campaign {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Campaign, 0, len(m.campaigns))
	for _, c := range m.campaigns {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return naturalLess(out[i].ID, out[j].ID) })
	return out
}

// Delete stops the campaign, removes it from the manager, and deletes
// its journal — a deleted campaign does not come back on restart.
func (m *Manager) Delete(id string) error {
	if err := m.Release(id); err != nil {
		return err
	}
	if m.store != nil {
		if err := m.store.Remove(id); err != nil {
			return err
		}
	}
	return nil
}

// Release stops the campaign and removes it from the manager WITHOUT
// touching its journal: the campaign can be resumed here later
// (ResumeOne) or shipped to another node and adopted there — the
// handoff primitive behind cluster migration.
func (m *Manager) Release(id string) error {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	if ok {
		delete(m.campaigns, id)
		campaignsActive.Set(float64(len(m.campaigns)))
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	c.Stop(context.Background())
	c.close()
	return nil
}

// Predict evaluates the campaign's current model at the request points.
// See PredictCtx.
func (m *Manager) Predict(c *Campaign, points [][]float64) (PredictResponse, error) {
	return m.PredictCtx(context.Background(), c, points)
}

// PredictCtx evaluates the campaign's current model at the request
// points, serving what it can from the LRU and batching the misses
// through the shared scoring pool. Points must match the campaign's
// input dimensionality. Waiting for a scoring slot honors ctx, and the
// score breaker fails fast once slot waits start dying of deadline
// exhaustion (overload) instead of queueing more doomed work.
func (m *Manager) PredictCtx(ctx context.Context, c *Campaign, points [][]float64) (PredictResponse, error) {
	if len(points) == 0 {
		return PredictResponse{}, fmt.Errorf("%w: empty predict batch", ErrSpec)
	}
	model, version, err := c.Model()
	if err != nil {
		return PredictResponse{}, err
	}
	dims := c.grid.X.Cols()
	for i, pt := range points {
		if len(pt) != dims {
			return PredictResponse{}, fmt.Errorf("%w: point %d has %d dims, campaign has %d", ErrSpec, i, len(pt), dims)
		}
		for _, v := range pt {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return PredictResponse{}, fmt.Errorf("%w: point %d has a non-finite coordinate", ErrSpec, i)
			}
		}
	}
	predictPoints.Add(int64(len(points)))

	prefix := c.ID + ":" + strconv.Itoa(version) + ":"
	resp := PredictResponse{
		ModelVersion: version,
		Means:        make([]al.JSONFloat, len(points)),
		SDs:          make([]al.JSONFloat, len(points)),
	}
	var missIdx []int
	for i, pt := range points {
		if pred, ok := m.cache.get(prefix + xKey(pt)); ok {
			resp.Means[i] = al.JSONFloat(pred.Mean)
			resp.SDs[i] = al.JSONFloat(pred.SD)
			resp.CacheHits++
		} else {
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) > 0 {
		miss := make([][]float64, len(missIdx))
		for j, i := range missIdx {
			miss[j] = points[i]
		}
		scoreQueueDepth.Set(float64(len(m.sem)))
		var preds []gp.Prediction
		if err := m.scoreBreaker.Do(func() error {
			select {
			case m.sem <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			}
			defer func() { <-m.sem }()
			preds = al.ScoreBatch(model, mat.NewFromRows(miss), m.cfg.ScoreWorkers)
			return nil
		}); err != nil {
			return PredictResponse{}, err
		}
		for j, i := range missIdx {
			resp.Means[i] = al.JSONFloat(preds[j].Mean)
			resp.SDs[i] = al.JSONFloat(preds[j].SD)
			m.cache.put(prefix+xKey(points[i]), preds[j])
		}
	}
	return resp, nil
}

// CampaignCount reports (total, terminal) campaign counts for /healthz.
func (m *Manager) CampaignCount() (total, ended int) {
	for _, c := range m.List() {
		total++
		if st, err := c.Status(false); err == nil && terminal(st.State) {
			ended++
		}
	}
	return total, ended
}

// Shutdown gracefully stops every campaign: each actor finishes the
// step it is in, moves its campaign to "stopped", flushes the final
// journal line, and exits. Respects ctx for the drain.
//
// Shutdown is idempotent and safe to call concurrently with itself,
// with Delete/Release, and with in-flight suggest/observe/predict
// traffic (see the shutdown contract in doc.go): exactly one caller
// performs the drain; every other call — concurrent or later — waits
// for that drain to finish (or for its own ctx) and returns the drain's
// outcome.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		done := m.drainDone
		m.mu.Unlock()
		// Prefer a finished drain over a racing ctx cancellation, so a
		// late caller with an expired context still gets the real result.
		select {
		case <-done:
			return m.drainErr
		default:
		}
		select {
		case <-done:
			return m.drainErr
		case <-ctx.Done():
			return fmt.Errorf("serve: waiting for concurrent shutdown: %w", ctx.Err())
		}
	}
	m.closed = true
	m.drainDone = make(chan struct{})
	all := make([]*Campaign, 0, len(m.campaigns))
	for _, c := range m.campaigns {
		all = append(all, c)
	}
	m.mu.Unlock()

	var err error
	for _, c := range all {
		// A campaign a concurrent Release closed is already stopped.
		if serr := c.Stop(ctx); serr != nil && !errors.Is(serr, ErrClosed) {
			err = fmt.Errorf("serve: shutdown interrupted with campaign %s still draining: %w", c.ID, serr)
			continue
		}
		c.close()
	}
	obs.Emit("serve.shutdown", map[string]any{"campaigns": len(all)})
	m.drainErr = err
	close(m.drainDone)
	return err
}
