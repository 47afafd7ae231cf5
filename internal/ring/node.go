package ring

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Ring-side metrics (see OBSERVABILITY.md).
var (
	ringShips            = obs.C("ring.ship.count")
	ringShipErrors       = obs.C("ring.ship.errors")
	ringShipFollowerErrs = obs.C("ring.ship.follower.errors")
	ringShipDedup        = obs.C("ring.ship.dedup")
	ringSyncs            = obs.C("ring.sync.count")
	ringAdopts           = obs.C("ring.adopt.count")
	ringEpochRejects     = obs.C("ring.epoch.rejects")
	ringMembers          = obs.G("ring.members")
	ringEpochGauge       = obs.G("ring.epoch")
)

// errShipGap is the follower's "your idx skips records I don't have"
// rejection; the owner heals it with a full journal sync.
var errShipGap = errors.New("ring: ship index gap")

// NodeConfig configures one cluster node.
type NodeConfig struct {
	// ID is the node's stable identity on the ring.
	ID string

	// Serve configures the node's campaign manager. Its Store (or the
	// DirStore built from its CheckpointDir) becomes the node's LOCAL
	// journal store; the node wraps it with the replicating store that
	// ships every record to the campaign's follower. When both are
	// empty the node keeps journals in a MemStore (still replicated —
	// durability then comes from the follower, not the local disk).
	Serve serve.Config

	// Server tunes the node's HTTP front (serve.ServerConfig defaults).
	Server serve.ServerConfig

	// ShipTimeout bounds one ship or sync call to the follower
	// (default 5s). Shipping is synchronous — it sits on the
	// observe path on purpose, that is what replicate-before-ack means —
	// so the timeout is also the worst-case observe stall a sick
	// follower can cause before the observe is rejected 503.
	ShipTimeout time.Duration

	// Followers is how many distinct followers each campaign's journal
	// ships to (default 1; clamped to the membership size). An append is
	// acknowledged after a quorum of one follower has the record;
	// laggards are healed lazily with full resyncs.
	Followers int

	// Client performs internal node-to-node calls (ship, sync). Default
	// is a plain http.Client; tests inject chaos transports.
	Client *http.Client
}

// Node is one replica of the campaign cluster: a serve.Manager whose
// journal store ships every record to the campaign's follower, plus the
// internal replication API (/internal/...) and an epoch guard on every
// request that carries EpochHeader.
type Node struct {
	// ID is the node's ring identity.
	ID string

	mgr         *serve.Manager
	srv         *serve.Server
	inner       serve.Store
	mux         *http.ServeMux
	client      *http.Client
	shipTimeout time.Duration
	followerN   int

	mu         sync.Mutex
	membership Membership
	ring       *Ring
	replicas   map[string]*replica

	// dead marks a killed node: shipping stops and the manager is about
	// to be torn down. The chaos harness sets it before stopping the
	// manager so an in-process "kill" leaks nothing to the followers
	// that a real process death would not have sent.
	dead atomic.Bool
}

// NewNode builds a node. Call Manager().ResumeAll() after the cluster's
// first membership install to relaunch persisted campaigns.
func NewNode(cfg NodeConfig) *Node {
	n := &Node{
		ID:          cfg.ID,
		shipTimeout: cfg.ShipTimeout,
		followerN:   cfg.Followers,
		client:      cfg.Client,
		replicas:    make(map[string]*replica),
		mux:         http.NewServeMux(),
	}
	if n.shipTimeout <= 0 {
		n.shipTimeout = 5 * time.Second
	}
	if n.followerN <= 0 {
		n.followerN = 1
	}
	if n.client == nil {
		n.client = &http.Client{}
	}
	inner := cfg.Serve.Store
	if inner == nil {
		if cfg.Serve.CheckpointDir != "" {
			inner = serve.NewDirStore(cfg.Serve.CheckpointDir, cfg.Serve.TornWrites)
		} else {
			inner = serve.NewMemStore()
		}
	}
	n.inner = inner
	mcfg := cfg.Serve
	mcfg.Store = &shippingStore{node: n, inner: inner}
	mcfg.CheckpointDir = "" // the store above already covers persistence
	n.mgr = serve.NewManager(mcfg)
	n.srv = serve.NewServerWith(n.mgr, cfg.Server)

	n.mux.HandleFunc("PUT /internal/membership", n.handleMembership)
	n.mux.HandleFunc("GET /internal/ping", n.handlePing)
	n.mux.HandleFunc("POST /internal/reconcile", n.handleReconcile)
	n.mux.HandleFunc("POST /internal/campaigns/{id}", n.handleCreate)
	n.mux.HandleFunc("POST /internal/ship/{id}", n.handleShip)
	n.mux.HandleFunc("PUT /internal/replica/{id}", n.handleReplicaPut)
	n.mux.HandleFunc("GET /internal/replica/{id}", n.handleReplicaGet)
	n.mux.HandleFunc("DELETE /internal/replica/{id}", n.handleReplicaDel)
	n.mux.HandleFunc("GET /internal/export/{id}", n.handleExport)
	n.mux.HandleFunc("POST /internal/adopt/{id}", n.handleAdopt)
	n.mux.HandleFunc("POST /internal/release/{id}", n.handleRelease)
	n.mux.HandleFunc("DELETE /internal/journal/{id}", n.handleJournalDel)
	n.mux.Handle("/", n.srv)
	return n
}

// Manager exposes the node's campaign manager (shutdown, resume).
func (n *Node) Manager() *serve.Manager { return n.mgr }

// Epoch returns the node's installed membership epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.membership.Epoch
}

// MarkDead stops the node from shipping to followers and drops the
// replicas it holds for other owners, giving back their shared candidate
// rows; a dead node takes no new replica. The harness calls it at kill
// time, before tearing the manager down, so an in-process death sends
// followers exactly what a real crash would have: nothing.
func (n *Node) MarkDead() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dead.Store(true)
	for id := range n.replicas {
		n.dropReplica(id)
	}
}

// refuseDead answers 503 and reports true when the node is dead. The
// caller holds n.mu, so no replica lands after MarkDead dropped them.
func (n *Node) refuseDead(w http.ResponseWriter) bool {
	if !n.dead.Load() {
		return false
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": fmt.Sprintf("ring: node %s is down", n.ID)})
	return true
}

// InstallMembership adopts a membership view. Epochs only move forward;
// installing the current epoch again is a no-op refresh.
func (n *Node) InstallMembership(m Membership) error {
	if err := m.validate(); err != nil {
		return err
	}
	m.normalize()
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.Epoch < n.membership.Epoch {
		return fmt.Errorf("ring: refusing membership epoch %d over %d", m.Epoch, n.membership.Epoch)
	}
	n.membership = m
	n.ring = m.ring(0)
	ringMembers.Set(float64(len(m.Members)))
	ringEpochGauge.Set(float64(m.Epoch))
	return nil
}

// ServeHTTP implements http.Handler: the epoch guard, then the node
// routes. Requests labeled with a foreign epoch are rejected 503 so a
// router (or peer) acting on a stale membership view gets backpressure
// instead of a wrong answer; unlabeled requests (direct debugging,
// membership pushes) pass.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := r.Header.Get(EpochHeader); h != "" {
		want, err := strconv.ParseUint(h, 10, 64)
		if err != nil || want != n.Epoch() {
			ringEpochRejects.Inc()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"error": fmt.Sprintf("ring: node %s is at epoch %d, request labeled %s", n.ID, n.Epoch(), h),
			})
			return
		}
	}
	n.mux.ServeHTTP(w, r)
}

// followerList returns the campaign's followers: up to Followers
// distinct nodes on the id's ring walk, skipping this node, in walk
// order. Empty when the cluster has no second node (or this node is
// dead). The first entry is the node that adopts the campaign if this
// one dies — the ring's remap property sends the key exactly there.
func (n *Node) followerList(id string) []Member {
	if n.dead.Load() {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ring == nil || len(n.membership.Members) < 2 {
		return nil
	}
	var out []Member
	for _, cand := range n.ring.OwnerN(id, len(n.membership.Members)) {
		if cand == n.ID {
			continue
		}
		out = append(out, Member{ID: cand, URL: n.membership.url(cand)})
		if len(out) >= n.followerN {
			break
		}
	}
	return out
}

// handlePing answers the failure detector's heartbeat. Deliberately
// outside the epoch guard's reach (the detector sends no epoch label):
// a fenced node still answers pings — that is exactly how the detector
// learns it healed and can rejoin.
func (n *Node) handlePing(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"node": n.ID, "epoch": n.Epoch()})
}

// handleReconcile drops everything the router no longer places on this
// node: stale actives are released, their journals removed, and every
// follower replica buffer cleared (buffers refill via resync on the
// owners' next appends). Runs before a fenced node is readmitted, so a
// node that kept serving zombie campaigns behind a partition comes back
// clean instead of split-brained. The request arrives without an epoch
// label on purpose — the node is still at its pre-fence epoch.
func (n *Node) handleReconcile(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Keep []string `json:"keep"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	keep := make(map[string]bool, len(req.Keep))
	for _, id := range req.Keep {
		keep[id] = true
	}
	released := 0
	for _, c := range n.mgr.List() {
		if keep[c.ID] {
			continue
		}
		if err := n.mgr.Release(c.ID); err == nil {
			released++
		}
	}
	removed := 0
	if ids, err := n.inner.IDs(); err == nil {
		for _, id := range ids {
			if keep[id] {
				continue
			}
			if err := n.inner.Remove(id); err == nil {
				removed++
			}
		}
	}
	n.mu.Lock()
	cleared := len(n.replicas)
	for _, rep := range n.replicas {
		rep.drop()
	}
	n.replicas = make(map[string]*replica)
	n.mu.Unlock()
	obs.Emit("ring.reconcile", map[string]any{
		"node": n.ID, "kept": len(req.Keep), "released": released,
		"removed": removed, "replicas_cleared": cleared,
	})
	writeJSON(w, http.StatusOK, map[string]int{
		"released": released, "removed": removed, "replicas_cleared": cleared,
	})
}

// --- follower side: replica buffer handlers ---

type shipRequest struct {
	Idx  int    `json:"idx"`
	Line []byte `json:"line"`
}

// handleShip receives one journal record at index Idx. Dedup and gap
// rules make delivery idempotent: an index already held is acknowledged
// again without effect, an index that skips ahead is rejected 409 so
// the owner falls back to a full sync.
func (n *Node) handleShip(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req shipRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if req.Idx < 0 || len(req.Line) == 0 || req.Line[len(req.Line)-1] != '\n' {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "ring: ship record must be one newline-terminated line with idx >= 0"})
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.refuseDead(w) {
		return
	}
	rep := n.replicas[id]
	if rep == nil {
		if req.Idx != 0 {
			writeJSON(w, http.StatusConflict, map[string]any{"error": "ring: no replica for campaign", "count": 0})
			return
		}
		rep = newReplica(req.Line, 1)
		n.replicas[id] = rep
		writeJSON(w, http.StatusOK, map[string]int{"count": rep.count})
		return
	}
	switch {
	case req.Idx < rep.count:
		ringShipDedup.Inc()
	case req.Idx == rep.count:
		rep.tail = append(rep.tail, req.Line...)
		rep.count++
	default:
		writeJSON(w, http.StatusConflict, map[string]any{"error": "ring: ship index gap", "count": rep.count})
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"count": rep.count})
}

// handleReplicaPut installs a full journal image, replacing whatever
// the replica held — the owner's gap-heal and adoption-time sync path.
func (n *Node) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "ring: replica image must be newline-terminated journal lines"})
		return
	}
	count := bytes.Count(data, []byte("\n"))
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.refuseDead(w) {
		return
	}
	n.dropReplica(id)
	n.replicas[id] = newReplica(data, count)
	writeJSON(w, http.StatusOK, map[string]int{"count": count})
}

func (n *Node) handleReplicaGet(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	rep := n.replicas[r.PathValue("id")]
	var buf []byte
	if rep != nil {
		buf = rep.image()
	}
	n.mu.Unlock()
	if buf == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "ring: no replica"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(buf)
}

// dropReplica forgets the replica of campaign id. The caller holds n.mu.
func (n *Node) dropReplica(id string) {
	if rep := n.replicas[id]; rep != nil {
		rep.drop()
		delete(n.replicas, id)
	}
}

func (n *Node) handleReplicaDel(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	n.dropReplica(r.PathValue("id"))
	n.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"removed": r.PathValue("id")})
}

// --- owner side: create / adopt / release / export ---

// handleCreate launches a campaign under the router-assigned id.
func (n *Node) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec serve.CampaignSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	c, err := n.mgr.CreateWithID(r.PathValue("id"), spec)
	if err != nil {
		writeNodeErr(w, err)
		return
	}
	st, err := c.StatusCtx(r.Context(), false)
	if err != nil {
		writeNodeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

// handleAdopt promotes a campaign onto this node: from the request body
// when it carries a journal image (migration, or a failover adoption —
// the router supplies the longest replica image the cluster holds, so
// an acked record that only ever reached one of the k-1 followers is
// not lost when a different follower inherits the campaign), otherwise
// from the local replica buffer (fallback when no replica was reachable
// anywhere; by the ring's remap property the new owner IS the old first
// follower, so its buffer is the best image the router could reach).
// Idempotent: an already-active campaign acknowledges without effect.
func (n *Node) handleAdopt(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := n.mgr.Get(id); err == nil {
		writeJSON(w, http.StatusOK, map[string]string{"adopted": id, "note": "already active"})
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if len(data) == 0 {
		n.mu.Lock()
		if rep := n.replicas[id]; rep != nil {
			data = rep.image()
		}
		n.mu.Unlock()
	}
	if len(data) == 0 {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "ring: no journal image to adopt (no replica and empty body)"})
		return
	}
	if err := n.inner.Import(id, data); err != nil {
		writeNodeErr(w, err)
		return
	}
	// The buffer has been promoted to primary; drop the replica entry so
	// this node does not hold both roles for the campaign.
	n.mu.Lock()
	n.dropReplica(id)
	n.mu.Unlock()
	if err := n.mgr.ResumeOne(id); err != nil {
		writeNodeErr(w, err)
		return
	}
	ringAdopts.Inc()
	obs.Emit("ring.adopt", map[string]any{"node": n.ID, "campaign": id})
	writeJSON(w, http.StatusOK, map[string]string{"adopted": id})
}

// handleRelease stops a campaign and forgets it WITHOUT deleting its
// journal — the first half of a migration.
func (n *Node) handleRelease(w http.ResponseWriter, r *http.Request) {
	if err := n.mgr.Release(r.PathValue("id")); err != nil {
		writeNodeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"released": r.PathValue("id")})
}

// handleExport streams the campaign's raw journal bytes.
func (n *Node) handleExport(w http.ResponseWriter, r *http.Request) {
	data, err := n.inner.Export(r.PathValue("id"))
	if err != nil {
		writeNodeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(data)
}

// handleJournalDel removes a journal from the local store (the second
// half of a migration: the source's copy is stale once the target owns
// the campaign).
func (n *Node) handleJournalDel(w http.ResponseWriter, r *http.Request) {
	if err := n.inner.Remove(r.PathValue("id")); err != nil {
		writeNodeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": r.PathValue("id")})
}

func (n *Node) handleMembership(w http.ResponseWriter, r *http.Request) {
	var m Membership
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if err := n.InstallMembership(m); err != nil {
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"epoch": m.Epoch})
}

// writeNodeErr maps manager errors from the internal API onto statuses
// consistent with the public API's writeErr.
func writeNodeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, serve.ErrSpec):
		code = http.StatusBadRequest
	case errors.Is(err, serve.ErrNotFound), errors.Is(err, serve.ErrStoreNotFound):
		code = http.StatusNotFound
	case errors.Is(err, serve.ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrJournal):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// --- shipping store: the replication wrapper around the local store ---

// shippingStore implements serve.Store by delegating to the node's
// local store while issuing Appenders that ship every record to the
// campaign's followers BEFORE appending locally. Combined with the
// service's journal-before-ack rule this is replicate-before-ack: an
// acknowledged observation exists on at least two nodes (the owner plus
// a quorum of one follower; remaining followers heal lazily).
type shippingStore struct {
	node  *Node
	inner serve.Store
}

func (s *shippingStore) IDs() ([]string, error) { return s.inner.IDs() }

func (s *shippingStore) Create(id string, spec serve.CampaignSpec) (serve.Appender, error) {
	app, err := s.inner.Create(id, spec)
	if err != nil {
		return nil, err
	}
	sa := &shippingAppender{node: s.node, id: id, local: app, idx: 1, needSync: make(map[string]bool)}
	// Establish each replica with the header line (record 0): the
	// bytes the store just wrote, which are all its journal holds yet. A
	// failure is not fatal — the first observation's ship gap-heals that
	// follower with a full sync.
	if line, err := s.inner.Export(id); err == nil {
		for _, f := range s.node.followerList(id) {
			if err := sa.ship(f.URL, line, 0); err != nil {
				sa.needSync[f.ID] = true
			}
		}
	}
	return sa, nil
}

func (s *shippingStore) Load(id string) (*serve.JournalInfo, serve.Appender, error) {
	info, app, err := s.inner.Load(id)
	if err != nil {
		return nil, nil, err
	}
	// Load truncates the journal to the header plus the complete
	// observations and snapshots (terminal lines and torn tails
	// stripped), so the next ship index is known without an Export
	// round-trip. Deriving it from Export would leave idx at 0 if the
	// Export failed — and every ship at an index below the follower's
	// count is acked as a dedup, so new records would be silently
	// dropped instead of replicated.
	sa := &shippingAppender{node: s.node, id: id, local: app, idx: info.Lines, needSync: make(map[string]bool)}
	// Sync every follower eagerly so a freshly resumed (or adopted)
	// campaign is re-replicated before it accepts new observations; on
	// failure the first append retries via needSync.
	for _, f := range s.node.followerList(id) {
		if err := sa.resyncTo(f); err != nil {
			sa.needSync[f.ID] = true
		}
	}
	return info, sa, nil
}

func (s *shippingStore) Remove(id string) error {
	if err := s.inner.Remove(id); err != nil {
		return err
	}
	// Best effort: a stale follower replica only wastes memory — it can
	// never be adopted once the router forgets the campaign.
	for _, f := range s.node.followerList(id) {
		ctx, cancel := context.WithTimeout(context.Background(), s.node.shipTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, f.URL+"/internal/replica/"+id, nil)
		if err == nil {
			if resp, err := s.node.client.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		cancel()
	}
	return nil
}

func (s *shippingStore) Export(id string) ([]byte, error)    { return s.inner.Export(id) }
func (s *shippingStore) Import(id string, data []byte) error { return s.inner.Import(id, data) }

// shippingAppender ships each record to the campaign's followers, then
// appends it locally. Owned by one campaign actor goroutine, like every
// Appender.
type shippingAppender struct {
	node  *Node
	id    string
	local serve.Appender

	// idx is the index of the next record to ship (0 = header). It
	// always equals the local journal's line count, so a full resync
	// image leaves every healed follower expecting exactly idx next.
	idx int
	// needSync marks followers that must get a full replica sync before
	// their next ship — set after a failed ship, sync, or header
	// establishment so a lagging follower is healed on the next append
	// instead of drifting.
	needSync map[string]bool
}

// replicate ships line as record a.idx to every follower and advances
// the index once a quorum of one has acknowledged it. A gap rejection
// (follower missing records: new follower after a membership change, or
// a reconciled one) heals with a full sync and one retry. Returns nil
// when the cluster has no follower to ship to, and still advances the
// index: it counts the local journal's lines, which the caller appends.
func (a *shippingAppender) replicate(line []byte) error {
	fols := a.node.followerList(a.id)
	if len(fols) == 0 {
		a.idx++
		return nil
	}
	acked := 0
	var firstErr error
	for _, f := range fols {
		if err := a.shipOne(f, line); err != nil {
			ringShipFollowerErrs.Inc()
			a.needSync[f.ID] = true
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		acked++
	}
	if acked == 0 {
		ringShipErrors.Inc()
		return firstErr
	}
	a.idx++
	return nil
}

// shipOne delivers record a.idx to one follower, healing it first if a
// previous round marked it out of sync.
func (a *shippingAppender) shipOne(f Member, line []byte) error {
	if a.needSync[f.ID] {
		if err := a.resyncTo(f); err != nil {
			return err
		}
		delete(a.needSync, f.ID)
	}
	err := a.ship(f.URL, line, a.idx)
	if errors.Is(err, errShipGap) {
		if err = a.resyncTo(f); err == nil {
			err = a.ship(f.URL, line, a.idx)
		}
	}
	return err
}

// ship POSTs one record line at index idx to a follower's base URL.
func (a *shippingAppender) ship(folURL string, line []byte, idx int) error {
	body, err := json.Marshal(shipRequest{Idx: idx, Line: line})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), a.node.shipTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, folURL+"/internal/ship/"+a.id, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.node.client.Do(req)
	if err != nil {
		return fmt.Errorf("ring: ship %s[%d]: %w", a.id, idx, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		ringShips.Inc()
		return nil
	case http.StatusConflict:
		return fmt.Errorf("%w: %s[%d]", errShipGap, a.id, idx)
	default:
		return fmt.Errorf("ring: ship %s[%d]: HTTP %d", a.id, idx, resp.StatusCode)
	}
}

// resyncTo pushes the full local journal image to one follower. The
// image holds exactly the records shipped so far (local appends land
// after replicate), so afterwards the follower expects index a.idx —
// the ship index is shared across followers and never moves here.
func (a *shippingAppender) resyncTo(f Member) error {
	data, err := a.node.inner.Export(a.id)
	if err != nil {
		return fmt.Errorf("ring: export for sync: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), a.node.shipTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, f.URL+"/internal/replica/"+a.id, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := a.node.client.Do(req)
	if err != nil {
		return fmt.Errorf("ring: sync %s to %s: %w", a.id, f.ID, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ring: sync %s to %s: HTTP %d", a.id, f.ID, resp.StatusCode)
	}
	ringSyncs.Inc()
	obs.Emit("ring.sync", map[string]any{
		"node": a.node.ID, "campaign": a.id, "follower": f.ID,
		"records": bytes.Count(data, []byte("\n")),
	})
	return nil
}

// AppendObs implements serve.Appender: follower first, then local.
// A replication failure (after the gap-heal attempt) REJECTS the append
// so the service never acknowledges an observation that exists on only
// one node — the client sees 503 and retries, trading availability for
// the zero-acked-loss guarantee.
func (a *shippingAppender) AppendObs(o serve.Observation, mv int, fp uint64) error {
	line, err := serve.EncodeJournalObs(o, mv, fp)
	if err != nil {
		return err
	}
	if err := a.replicate(line); err != nil {
		return err
	}
	return a.local.AppendObs(o, mv, fp)
}

// AppendFinal implements serve.Appender. The terminal line is
// best-effort upstream (it is informational; resume strips it), so a
// replication failure here does not block the local append.
func (a *shippingAppender) AppendFinal(state, errMsg string, converged bool, mv int, fp uint64) error {
	if line, err := serve.EncodeJournalFinal(state, errMsg, converged, mv, fp); err == nil {
		if err := a.replicate(line); err != nil {
			obs.Emit("ring.ship.final.failed", map[string]any{"node": a.node.ID, "campaign": a.id, "err": err.Error()})
		}
	}
	return a.local.AppendFinal(state, errMsg, converged, mv, fp)
}

// AppendSnapshot implements serve.Appender. A snapshot only saves
// replay work, so like the terminal line it is shipped best effort, and
// after the local append: it never blocks the campaign.
func (a *shippingAppender) AppendSnapshot(snap serve.Snapshot, final *serve.Final) error {
	if err := a.local.AppendSnapshot(snap, final); err != nil {
		return err
	}
	if line, err := serve.EncodeJournalSnapshot(snap); err == nil {
		a.replicateHeld(line)
	}
	if final != nil {
		if line, err := serve.EncodeJournalFinal(final.State, final.Error, final.Converged, final.ModelVersion, final.Fingerprint); err == nil {
			a.replicateHeld(line)
		}
	}
	return nil
}

// replicateHeld ships a record the local journal already holds. When no
// follower takes it, the ship index still moves past it, since it must
// stay the local line count: replicate has marked every follower for a
// full sync, which carries the record before the next one.
func (a *shippingAppender) replicateHeld(line []byte) {
	if err := a.replicate(line); err != nil {
		a.idx++
		obs.Emit("ring.ship.snapshot.failed", map[string]any{"node": a.node.ID, "campaign": a.id, "err": err.Error()})
	}
}

// Disable implements serve.Appender.
func (a *shippingAppender) Disable() { a.local.Disable() }

// Close implements serve.Appender.
func (a *shippingAppender) Close() error { return a.local.Close() }
