package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// span is one timed call across a layer boundary, recorded from outside
// the program: the benchmark wraps the program's public seams (HTTP
// handlers, round trippers, the journal store) and times the calls that
// cross them.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Name     string `json:"name"`
	Req      string `json:"req,omitempty"` // idempotency key of the observe it serves
	Campaign string `json:"campaign,omitempty"`
	Phase    string `json:"phase"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Status   int    `json:"status,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory while a phase is being traced and writes
// them out when the run ends. Decorators check on() first, so a decorated
// program with recording off only pays for one atomic load per call.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	phase atomic.Pointer[string]

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// setPhase starts recording spans under the given phase name; "" stops
// recording.
func (r *recorder) setPhase(p string) { r.phase.Store(&p) }

func (r *recorder) on() bool {
	if r == nil {
		return false
	}
	p := r.phase.Load()
	return p != nil && *p != ""
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// start opens a span; the returned function closes and records it.
func (r *recorder) start(name, campaign, req string, parent int64) (id int64, end func(status int)) {
	id = r.next.Add(1)
	s := span{ID: id, Parent: parent, Name: name, Req: req, Campaign: campaign, Phase: *r.phase.Load(), StartNS: r.now()}
	return id, func(status int) {
		s.EndNS = r.now()
		s.Status = status
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// inPhase returns the recorded spans of one phase.
func (r *recorder) inPhase(phase string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Phase == phase {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes every recorded span, one JSON object per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

type spanKey struct{}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// routeOf names the operation an HTTP request performs and the campaign
// it targets, from its method and path.
func routeOf(method, path string) (op, campaign string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) >= 3 && parts[0] == "internal":
		// /internal/ship/{id}, /internal/replica/{id}, /internal/campaigns/{id}, ...
		op = parts[1]
		if parts[1] == "replica" {
			op = "replica." + strings.ToLower(method)
		}
		return op, parts[2]
	case len(parts) == 3 && parts[0] == "campaigns":
		return parts[2], parts[1]
	case len(parts) == 2 && parts[0] == "campaigns":
		if method == http.MethodDelete {
			return "delete", parts[1]
		}
		return "status", parts[1]
	case len(parts) == 1 && parts[0] == "campaigns":
		if method == http.MethodPost {
			return "create", ""
		}
		return "list", ""
	}
	return strings.Join(parts, "."), ""
}

// tracedHandler times every request an http.Handler serves as span
// "<layer>.<op>" and hands its span id to the handler's context, so the
// round trips the handler makes (the router's forwards) name it as their
// parent.
type tracedHandler struct {
	layer string
	next  http.Handler
	rec   *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on() {
		h.next.ServeHTTP(w, r)
		return
	}
	op, campaign := routeOf(r.Method, r.URL.Path)
	id, end := h.rec.start(h.layer+"."+op, campaign, r.Header.Get(resilience.IdempotencyHeader), 0)
	sw := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	h.next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
	end(sw.code)
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// tracedTransport times every round trip as span "<layer>.<op>", from the
// call until the response headers arrive. The parent is the handler span
// carried by the request context, when there is one.
type tracedTransport struct {
	layer string
	base  http.RoundTripper
	rec   *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on() {
		return t.base.RoundTrip(req)
	}
	op, campaign := routeOf(req.Method, req.URL.Path)
	_, end := t.rec.start(t.layer+"."+op, campaign, req.Header.Get(resilience.IdempotencyHeader), spanFrom(req.Context()))
	resp, err := t.base.RoundTrip(req)
	status := 0
	if resp != nil {
		status = resp.StatusCode
	}
	end(status)
	return resp, err
}

// tracedStore times journal loads and hands out timed appenders.
type tracedStore struct {
	serve.Store
	rec *recorder
}

func (s *tracedStore) Create(id string, spec serve.CampaignSpec) (serve.Appender, error) {
	app, err := s.Store.Create(id, spec)
	if err != nil {
		return nil, err
	}
	return &tracedAppender{Appender: app, id: id, rec: s.rec}, nil
}

func (s *tracedStore) Load(id string) (*serve.JournalInfo, serve.Appender, error) {
	var end func(int)
	if s.rec.on() {
		_, end = s.rec.start("serve.journal.load", id, "", 0)
	}
	info, app, err := s.Store.Load(id)
	if end != nil {
		end(0)
	}
	if err != nil {
		return nil, nil, err
	}
	return info, &tracedAppender{Appender: app, id: id, rec: s.rec}, nil
}

// tracedAppender times each observation append to the local journal: the
// write plus fsync. On a cluster node the replicating store wraps this
// appender, so the span leaves out shipping, which ring.ship.* times.
type tracedAppender struct {
	serve.Appender
	id  string
	rec *recorder
}

func (a *tracedAppender) AppendObs(o serve.Observation, mv int, fp uint64) error {
	if !a.rec.on() {
		return a.Appender.AppendObs(o, mv, fp)
	}
	_, end := a.rec.start("serve.journal.append", a.id, o.Key, 0)
	err := a.Appender.AppendObs(o, mv, fp)
	end(0)
	return err
}

// engineTimers and engineCounters name the timers and counters the
// program keeps in obs.Default that the traced run reads as deltas. A
// timer contributes "<name>.count" and "<name>.sum" (seconds).
var engineTimers = []string{
	"al.model.update.duration", "al.score.duration", "al.select.duration",
	"gp.hyperopt.duration", "mat.cholesky.duration",
}

var engineCounters = []string{
	"al.candidates.evaluated", "gp.lml.evals", "gp.update.incremental",
	"gp.update.refit", "mat.cholesky.count", "ring.sync.count",
}

type engineSnap map[string]float64

func snapEngine() engineSnap {
	want := map[string]bool{}
	for _, n := range engineTimers {
		want[n] = true
	}
	for _, n := range engineCounters {
		want[n] = true
	}
	out := engineSnap{}
	for _, m := range obs.Default.Snapshot() {
		if !want[m.Name] {
			continue
		}
		if m.Type == "histogram" {
			out[m.Name+".count"] = float64(m.Count)
			out[m.Name+".sum"] = m.Sum
		} else {
			out[m.Name] = m.Value
		}
	}
	return out
}

// add accumulates the change from a to b into s.
func (s engineSnap) add(a, b engineSnap) {
	for k, v := range b {
		s[k] += v - a[k]
	}
}

// meanMS is the mean duration of a timer over the accumulated window.
func (s engineSnap) meanMS(timer string) float64 {
	return 1000 * ratio(s[timer+".sum"], s[timer+".count"])
}
