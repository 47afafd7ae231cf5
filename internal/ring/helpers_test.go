package ring

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/al"
	"repro/internal/serve"
)

// testGrid is the 1-D candidate grid the cluster tests share with the
// serve package's suites.
func testGrid() [][]float64 {
	out := make([][]float64, 12)
	for i := range out {
		out[i] = []float64{3 * float64(i) / 11}
	}
	return out
}

// testOracle is the deterministic noise-free measurement every driver
// answers suggestions with.
func testOracle(x []float64) (y, cost float64) {
	y = math.Sin(2*x[0]) + 0.5*x[0]
	return y, 1 + x[0]
}

func clientSpec(seed int64) serve.CampaignSpec {
	return serve.CampaignSpec{
		Name:       "trace",
		Source:     "client",
		Candidates: testGrid(),
		Seeds:      []int{0, 11},
		Strategy:   "variance-reduction",
		Iterations: 5,
		Restarts:   1,
		Seed:       seed,
	}
}

// refStatus runs the spec on a solo, fault-free serve.Manager and
// returns its terminal status — the reference trace (records and model
// fingerprint) every cluster-driven run of the same spec must
// reproduce exactly.
func refStatus(t *testing.T, spec serve.CampaignSpec) serve.CampaignStatus {
	t.Helper()
	mgr := serve.NewManager(serve.Config{})
	defer mgr.Shutdown(context.Background())
	c, err := mgr.Create(spec)
	if err != nil {
		t.Fatalf("reference create: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("reference run stuck")
		}
		sug, err := c.Suggest()
		if err != nil {
			st, serr := c.Status(false)
			if serr != nil {
				t.Fatalf("reference status: %v", serr)
			}
			if isTerminal(st.State) {
				break
			}
			time.Sleep(time.Millisecond)
			continue
		}
		y, cost := testOracle(sug.X)
		if err := c.Observe(sug.Seq, y, cost); err != nil {
			t.Fatalf("reference observe: %v", err)
		}
	}
	st, err := c.Status(true)
	if err != nil {
		t.Fatalf("reference status: %v", err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("reference run ended %s (err %q), want done", st.State, st.Error)
	}
	return st
}

func isTerminal(state string) bool {
	switch state {
	case serve.StateDone, serve.StateFailed, serve.StateStopped:
		return true
	}
	return false
}

// httpJSON performs one request with an optional idempotency key,
// returning transport errors for the caller to absorb (chaos runs
// expect them).
func httpJSON(client *http.Client, method, url, key string, body, out any) (int, error) {
	var rd io.Reader
	var data []byte
	if body != nil {
		var err error
		data, err = json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		return resp.StatusCode, json.Unmarshal(rb, out)
	}
	return resp.StatusCode, nil
}

// driveHTTP answers a campaign's suggestions through the router until
// the campaign is terminal (or maxObs observations have been
// acknowledged, when maxObs > 0). Observations carry "<id>-seq<N>"
// idempotency keys; transient failures (5xx, 429, transport errors) are
// retried, so the drive survives failovers and partitions in progress.
// At the end it asserts the acknowledged seqs are the contiguous 1..N.
func driveHTTP(t *testing.T, client *http.Client, base, id string, maxObs int) int {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	acked := make(map[int]bool)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s: drive timeout after %d acked observes", id, len(acked))
		}
		var sug serve.Suggestion
		code, err := httpJSON(client, http.MethodGet, base+"/campaigns/"+id+"/suggest", "", nil, &sug)
		switch {
		case err != nil || code >= 500 || code == http.StatusTooManyRequests:
			time.Sleep(5 * time.Millisecond)
			continue
		case code == http.StatusConflict:
			var st serve.CampaignStatus
			if c2, err2 := httpJSON(client, http.MethodGet, base+"/campaigns/"+id, "", nil, &st); err2 == nil && c2 == http.StatusOK && isTerminal(st.State) {
				assertContiguous(t, id, acked)
				return len(acked)
			}
			time.Sleep(5 * time.Millisecond)
			continue
		case code != http.StatusOK:
			t.Fatalf("campaign %s suggest: HTTP %d", id, code)
		}
		y, cost := testOracle(sug.X)
		req := serve.ObserveRequest{Seq: sug.Seq, Y: al.JSONFloat(y), Cost: al.JSONFloat(cost)}
		key := fmt.Sprintf("%s-seq%d", id, sug.Seq)
		code, err = httpJSON(client, http.MethodPost, base+"/campaigns/"+id+"/observe", key, req, nil)
		switch {
		case err != nil:
			time.Sleep(5 * time.Millisecond)
		case code == http.StatusOK:
			acked[sug.Seq] = true
			if maxObs > 0 && len(acked) >= maxObs {
				assertContiguous(t, id, acked)
				return len(acked)
			}
		case code == http.StatusConflict, code == http.StatusServiceUnavailable,
			code == http.StatusTooManyRequests, code == http.StatusBadGateway:
			// Another pass resolves it (or the idempotency key dedups).
			time.Sleep(5 * time.Millisecond)
		default:
			t.Fatalf("campaign %s observe seq %d: HTTP %d", id, sug.Seq, code)
		}
	}
}

func assertContiguous(t *testing.T, id string, acked map[int]bool) {
	t.Helper()
	seqs := make([]int, 0, len(acked))
	for s := range acked {
		seqs = append(seqs, s)
	}
	sort.Ints(seqs)
	for i, s := range seqs {
		// Contiguous from wherever this drive picked up (a fresh drive
		// starts at 1; a post-failover drive resumes mid-sequence).
		if s != seqs[0]+i {
			t.Fatalf("campaign %s: acked seqs %v are not contiguous — a suggestion was lost or double-consumed", id, seqs)
		}
	}
}

// waitTerminalHTTP polls the campaign status through the router until
// it is terminal.
func waitTerminalHTTP(t *testing.T, client *http.Client, base, id string) serve.CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st serve.CampaignStatus
		code, err := httpJSON(client, http.MethodGet, base+"/campaigns/"+id, "", nil, &st)
		if err == nil && code == http.StatusOK && isTerminal(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never reached a terminal state (last HTTP %d, err %v)", id, code, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// expectSameTrace compares a cluster campaign's terminal status against
// the solo reference: identical fingerprint, observation count, and
// bit-identical records (compared through their canonical JSON, which
// is NaN-safe).
func expectSameTrace(t *testing.T, got, ref serve.CampaignStatus) {
	t.Helper()
	if got.State != serve.StateDone {
		t.Fatalf("campaign %s ended %s (err %q), want done", got.ID, got.State, got.Error)
	}
	if got.Fingerprint == 0 || got.Fingerprint != ref.Fingerprint {
		t.Fatalf("campaign %s fingerprint %x, reference %x — trace diverged", got.ID, got.Fingerprint, ref.Fingerprint)
	}
	if got.Observations != ref.Observations {
		t.Fatalf("campaign %s has %d observations, reference %d — an observe was lost or double-applied", got.ID, got.Observations, ref.Observations)
	}
	gj, err := json.Marshal(got.Records)
	if err != nil {
		t.Fatalf("marshal records: %v", err)
	}
	rj, err := json.Marshal(ref.Records)
	if err != nil {
		t.Fatalf("marshal reference records: %v", err)
	}
	if !bytes.Equal(gj, rj) {
		t.Fatalf("campaign %s records diverge from the reference run:\n got %s\nwant %s", got.ID, gj, rj)
	}
}

// leakTargets mirrors the serve package's leak checker: no campaign
// actor or detector heartbeat goroutine may survive the cluster's
// shutdown.
var leakTargets = []string{
	"serve.(*Campaign).actor",
	"ring.(*Detector).watch",
}

func leakedCampaignGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		for _, target := range leakTargets {
			if strings.Contains(g, target) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// checkLeaked fails t if a replica still holds candidate rows or a
// campaign goroutine outlives the cluster.
func checkLeaked(t *testing.T) {
	t.Helper()
	if n := rowRuns.Len(); n != 0 {
		t.Errorf("%d candidate-row run(s) still held past cluster shutdown", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stacks := leakedCampaignGoroutines()
		if len(stacks) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%d campaign goroutine(s) leaked past cluster shutdown:\n%s",
				len(stacks), strings.Join(stacks, "\n\n"))
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
