package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/serve"
)

// window collects what the clients saw while one timed window was open.
// A sample belongs to the window that is open when its request
// completes.
type window struct {
	start, end time.Time

	mu        sync.Mutex
	steps     []float64 // observe ack → next suggestion, ms
	turns     []float64 // observe sent → next suggestion the engine chose, ms
	observes  []float64 // observe round trip, ms
	acked     int       // acknowledged observes (AL steps)
	polls     int       // suggest requests, 409 "no pending" included
	attempted int
	failed    int
}

func (w *window) record(f func(w *window)) {
	if w == nil {
		return
	}
	w.mu.Lock()
	f(w)
	w.mu.Unlock()
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// sink is the window currently open, or nil between windows.
type sink struct {
	cur  atomic.Pointer[window]
	gate gate
}

// gate parks the clients where the service holds no work for them (a
// suggestion received and not yet answered), so that the heap can be
// measured with every campaign held but idle. Clients join before they
// start and leave when they return.
type gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	paused  bool
	parked  int
	clients int
}

func (g *gate) init() { g.cond = sync.NewCond(&g.mu) }

func (g *gate) join() {
	g.mu.Lock()
	g.clients++
	g.mu.Unlock()
}

func (g *gate) leave() {
	g.mu.Lock()
	g.clients--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// checkpoint parks the calling client while a pause is in effect.
func (g *gate) checkpoint() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.paused {
		return
	}
	g.parked++
	g.cond.Broadcast()
	for g.paused {
		g.cond.Wait()
	}
	g.parked--
}

// pause returns once every client still running is parked; resume
// releases them.
func (g *gate) pause() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.paused = true
	for g.parked < g.clients {
		g.cond.Wait()
	}
}

func (g *gate) resume() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.paused = false
	g.cond.Broadcast()
}

func newSink() *sink {
	s := &sink{}
	s.gate.init()
	return s
}

// next opens a new window, closing prev (if any) at the same instant.
func (s *sink) next(prev *window) *window {
	w := &window{start: time.Now()}
	if prev != nil {
		prev.mu.Lock()
		prev.end = w.start
		prev.mu.Unlock()
	}
	s.cur.Store(w)
	return w
}

func (s *sink) close(w *window) {
	w.mu.Lock()
	w.end = time.Now()
	w.mu.Unlock()
	s.cur.CompareAndSwap(w, nil)
}

// measure keeps windows open back to back for d in all, split into parts
// equal windows.
func (s *sink) measure(d time.Duration, parts int) []*window {
	var ws []*window
	var w *window
	for i := 0; i < parts; i++ {
		w = s.next(w)
		ws = append(ws, w)
		time.Sleep(d / time.Duration(parts))
	}
	s.close(w)
	return ws
}

// merge concatenates windows that were open back to back.
func merge(ws []*window) *window {
	m := &window{start: ws[0].start, end: ws[len(ws)-1].end}
	for _, w := range ws {
		m.steps = append(m.steps, w.steps...)
		m.turns = append(m.turns, w.turns...)
		m.observes = append(m.observes, w.observes...)
		m.acked += w.acked
		m.polls += w.polls
		m.attempted += w.attempted
		m.failed += w.failed
	}
	return m
}

func (s *sink) get() *window { return s.cur.Load() }

// api speaks the campaign service's public HTTP API.
type api struct {
	base string
	hc   *http.Client
	rec  *recorder
	sink *sink
}

// newClientTransport allows at most two connections to the service: the
// benchmark's whole load comes from at most two client goroutines.
func newClientTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute, DisableCompression: true}
}

// httpError is a response outside the status codes the caller expects.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// call performs one request and decodes a 2xx JSON answer into out. It
// returns the status code (0 on transport errors) and, for non-2xx
// answers, an *httpError. op names the client span in traced phases.
func (a *api) call(op, method, path string, body any, key string, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set(resilience.IdempotencyHeader, key)
	}
	var end func(int)
	if a.rec.on() {
		_, campaign := routeOf(method, path)
		_, end = a.rec.start("client."+op, campaign, key, 0)
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		if end != nil {
			end(0)
		}
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if end != nil {
		end(resp.StatusCode)
	}
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, &httpError{status: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// retries bounds how often one logical request is retried after a
// failure before the run gives up. Every failed attempt is counted.
const retries = 20

// must performs a request that is expected to succeed, counting every
// attempt in the open window and retrying failures after a short pause.
func (a *api) must(op, method, path string, body any, key string, out any) error {
	var err error
	for try := 0; try <= retries; try++ {
		_, err = a.call(op, method, path, body, key, out)
		a.sink.get().record(func(w *window) {
			w.attempted++
			if err != nil {
				w.failed++
			}
		})
		if err == nil {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s %s: %w", method, path, err)
}

func (a *api) create(spec serve.CampaignSpec) (string, error) {
	var st serve.CampaignStatus
	if err := a.must("create", http.MethodPost, "/campaigns", spec, "", &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// Poll schedule. Polls go back to back for the first pollEager after an
// ack, which catches a suggestion published within a fraction of a
// millisecond, then back off: a step that scores the full grid takes
// milliseconds, and polling back to back for all of it would take CPU
// from the engine. Go timers resolve to about a millisecond, which sets
// pollMin: a shorter sleep would not be shorter.
const (
	pollEager = time.Millisecond
	pollMin   = time.Millisecond
	pollMax   = 2 * time.Millisecond
)

// suggest polls until the campaign publishes its next suggestion. A 409
// "no pending" answer is a poll, not a failure.
func (a *api) suggest(id string) (serve.Suggestion, error) {
	wait := pollMin
	fails := 0
	eager := time.Now().Add(pollEager)
	for {
		var sug serve.Suggestion
		status, err := a.call("suggest", http.MethodGet, "/campaigns/"+id+"/suggest", nil, "", &sug)
		a.sink.get().record(func(w *window) {
			w.attempted++
			w.polls++
			if err != nil && status != http.StatusConflict {
				w.failed++
			}
		})
		switch {
		case err == nil:
			return sug, nil
		case status != http.StatusConflict:
			if fails++; fails > retries {
				return sug, fmt.Errorf("suggest %s: %w", id, err)
			}
		case time.Now().Before(eager):
			continue
		}
		time.Sleep(wait)
		if wait *= 2; wait > pollMax {
			wait = pollMax
		}
	}
}

// waitTerminal polls the campaign status until the engine has finished.
func (a *api) waitTerminal(id string) (serve.CampaignStatus, error) {
	wait := pollMin
	for {
		var st serve.CampaignStatus
		if err := a.must("status", http.MethodGet, "/campaigns/"+id, nil, "", &st); err != nil {
			return st, err
		}
		switch st.State {
		case serve.StateDone, serve.StateFailed, serve.StateStopped:
			return st, nil
		}
		time.Sleep(wait)
		if wait *= 2; wait > pollMax {
			wait = pollMax
		}
	}
}

// answerFunc is the stand-in experiment: an exact dataset lookup.
type answerFunc func(x []float64) (y, cost float64, err error)

// finished is the outcome of one campaign a client drove to the end.
type finished struct {
	spec         int // index into the run's distinct specs
	id           string
	state        string
	observations int
	fingerprint  uint64
}

// loopClient is one closed-loop client: it drives back-to-back campaigns
// through suggest → answer → observe, starting the next request only when
// the previous one has been answered.
type loopClient struct {
	api    *api
	specs  []serve.CampaignSpec // the run's distinct specs
	order  []int                // spec indices this client cycles through
	first  string               // id of the campaign created during set-up
	answer answerFunc
	stop   *atomic.Bool
	done   []finished
}

// run drives campaigns until stop is set, then finishes the campaign in
// flight so that every campaign ends done. Finished campaigns are deleted.
func (c *loopClient) run() error {
	for i := 0; i == 0 || !c.stop.Load(); i++ {
		k := c.order[i%len(c.order)]
		id := c.first
		if i > 0 {
			var err error
			if id, err = c.api.create(c.specs[k]); err != nil {
				return err
			}
		}
		f, err := c.campaign(k, id)
		if err != nil {
			return err
		}
		if err := c.api.must("delete", http.MethodDelete, "/campaigns/"+id, nil, "", nil); err != nil {
			return err
		}
		c.done = append(c.done, f)
	}
	return nil
}

// campaign drives campaign id, created from spec k, to its end.
func (c *loopClient) campaign(k int, id string) (finished, error) {
	spec := c.specs[k]
	want := len(spec.Seeds) + spec.Iterations
	var sentAt, ackAt time.Time
	for n := 0; n < want; n++ {
		sug, err := c.api.suggest(id)
		if err != nil {
			return finished{}, err
		}
		if !ackAt.IsZero() {
			step, turn := ms(time.Since(ackAt)), ms(time.Since(sentAt))
			learned := sug.Seq > len(spec.Seeds)
			c.api.sink.get().record(func(w *window) {
				w.steps = append(w.steps, step)
				if learned {
					w.turns = append(w.turns, turn)
				}
			})
		}
		c.api.sink.gate.checkpoint()
		y, cost, err := c.answer(sug.X)
		if err != nil {
			return finished{}, err
		}
		sentAt = time.Now()
		if err := c.api.observe(id, sug.Seq, y, cost); err != nil {
			return finished{}, err
		}
		ackAt = time.Now()
	}
	st, err := c.api.waitTerminal(id)
	if err != nil {
		return finished{}, err
	}
	return finished{spec: k, id: id, state: st.State, observations: st.Observations, fingerprint: st.Fingerprint}, nil
}

// observe posts one measurement under the idempotency key
// "<campaign>/<seq>" and records its round trip.
func (a *api) observe(id string, seq int, y, cost float64) error {
	t0 := time.Now()
	body := map[string]any{"seq": seq, "y": y, "cost": cost}
	if err := a.must("observe", http.MethodPost, "/campaigns/"+id+"/observe", body, id+"/"+strconv.Itoa(seq), nil); err != nil {
		return err
	}
	lat := ms(time.Since(t0))
	a.sink.get().record(func(w *window) {
		w.observes = append(w.observes, lat)
		w.acked++
	})
	return nil
}
