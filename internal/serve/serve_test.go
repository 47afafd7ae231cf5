package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/al"
	"repro/internal/gp"
	"repro/internal/mat"
)

// testGrid is a small 1-D candidate grid shared by the client-mode
// tests.
func testGrid() [][]float64 {
	out := make([][]float64, 12)
	for i := range out {
		out[i] = []float64{3 * float64(i) / 11}
	}
	return out
}

// testOracle is the deterministic noise-free measurement the client
// drivers answer suggestions with.
func testOracle(x []float64) (y, cost float64) {
	y = math.Sin(2*x[0]) + 0.5*x[0]
	return y, 1 + x[0]
}

func clientSpec(seed int64) CampaignSpec {
	return CampaignSpec{
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

// directRun executes the same campaign spec straight through
// al.RunOnline — the reference trace every server-driven run must
// reproduce bit for bit.
func directRun(t *testing.T, spec CampaignSpec) al.Result {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec: %v", err)
	}
	cfg, err := spec.loopConfig("y")
	if err != nil {
		t.Fatalf("loopConfig: %v", err)
	}
	oracle := al.OracleFunc(func(x []float64) (float64, float64, error) {
		y, c := testOracle(x)
		return y, c, nil
	})
	res, err := al.RunOnline(mat.NewFromRows(spec.Candidates), spec.Seeds, oracle, cfg, rand.New(rand.NewSource(spec.Seed)))
	if err != nil {
		t.Fatalf("RunOnline: %v", err)
	}
	return res
}

// sameRecords compares two traces bit-exactly (NaN == NaN).
func sameRecords(a, b []al.IterationRecord) error {
	if len(a) != len(b) {
		return fmt.Errorf("record count %d vs %d", len(a), len(b))
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.Iter != y.Iter || x.Row != y.Row || x.Train != y.Train ||
			bits(x.SDChosen) != bits(y.SDChosen) || bits(x.AMSD) != bits(y.AMSD) ||
			bits(x.RMSE) != bits(y.RMSE) || bits(x.Coverage) != bits(y.Coverage) ||
			bits(x.CumCost) != bits(y.CumCost) || bits(x.LML) != bits(y.LML) ||
			bits(x.Noise) != bits(y.Noise) {
			return fmt.Errorf("record %d differs: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

func isTerminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateStopped:
		return true
	}
	return false
}

// driveCampaign answers a client campaign's suggestions with testOracle
// until it reaches a terminal state (or maxObs observations when
// maxObs > 0), returning the suggested points in order.
func driveCampaign(t *testing.T, c *Campaign, maxObs int) [][]float64 {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var xs [][]float64
	for {
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s: drive timeout after %d observations", c.ID, len(xs))
		}
		sug, err := c.Suggest()
		if err != nil {
			st, serr := c.Status(false)
			if serr != nil {
				t.Fatalf("status: %v", serr)
			}
			if isTerminal(st.State) {
				return xs
			}
			time.Sleep(time.Millisecond)
			continue
		}
		y, cost := testOracle(sug.X)
		if err := c.Observe(sug.Seq, y, cost); err != nil {
			t.Fatalf("observe seq %d: %v", sug.Seq, err)
		}
		xs = append(xs, sug.X)
		if maxObs > 0 && len(xs) >= maxObs {
			return xs
		}
	}
}

func waitTerminal(t *testing.T, c *Campaign) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Status(false)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if isTerminal(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in state %s", c.ID, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// expectTrace checks a finished campaign against the reference
// al.RunOnline result: identical records and an identical suggestion
// stream — the seed experiments (measured through the oracle first)
// followed by the selected training rows, in order.
func expectTrace(t *testing.T, c *Campaign, xs [][]float64, ref al.Result) {
	t.Helper()
	recs, err := c.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	if err := sameRecords(recs, ref.Records); err != nil {
		t.Errorf("campaign %s trace diverges from direct RunOnline: %v", c.ID, err)
	}
	grid := testGrid()
	wantRows := append(append([]int(nil), c.Spec.Seeds...), ref.TrainRows...)
	if len(xs) != len(wantRows) {
		t.Fatalf("campaign %s measured %d points, reference measured %d", c.ID, len(xs), len(wantRows))
	}
	for i, x := range xs {
		want := grid[wantRows[i]]
		if math.Float64bits(x[0]) != math.Float64bits(want[0]) {
			t.Fatalf("suggestion %d: got x=%v, reference row %d has x=%v", i, x, wantRows[i], want)
		}
	}
}

func TestClientCampaignTraceMatchesRunOnline(t *testing.T) {
	spec := clientSpec(7)
	ref := directRun(t, spec)

	defer checkLeaked(t)
	mgr := NewManager(Config{})
	defer mgr.Shutdown(context.Background())
	c, err := mgr.Create(spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	xs := driveCampaign(t, c, 0)
	st := waitTerminal(t, c)
	if st.State != StateDone {
		t.Fatalf("campaign ended %s (err %q), want done", st.State, st.Error)
	}
	expectTrace(t, c, xs, ref)
	if st.ModelVersion == 0 || st.Fingerprint == 0 {
		t.Fatalf("terminal status missing model identity: %+v", st)
	}
}

func TestDatasetCampaignMatchesRunOnline(t *testing.T) {
	spec := CampaignSpec{
		Source:     "dataset",
		Dataset:    &DatasetSpec{Name: "synthetic", Seed: 3, N: 14, Noise: 0.05},
		Seeds:      []int{0, 13},
		Strategy:   "cost-efficiency",
		Iterations: 5,
		Restarts:   1,
		Seed:       11,
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec: %v", err)
	}

	// Reference: the same dataset measured through al.RunOnline directly.
	ds, response, err := lookupDataset(*spec.Dataset)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	all := make([]int, ds.Len())
	for i := range all {
		all[i] = i
	}
	cands := ds.Matrix(all)
	rows := make(map[string]int, ds.Len())
	for i := ds.Len() - 1; i >= 0; i-- {
		rows[xKey(cands.RawRow(i))] = i
	}
	cfg, err := spec.loopConfig(response)
	if err != nil {
		t.Fatalf("loopConfig: %v", err)
	}
	oracle := al.OracleFunc(func(x []float64) (float64, float64, error) {
		row, ok := rows[xKey(x)]
		if !ok {
			return 0, 0, fmt.Errorf("point %v not on grid", x)
		}
		return ds.RespAt(response, row), ds.CostAt(row), nil
	})
	ref, err := al.RunOnline(cands, spec.Seeds, oracle, cfg, rand.New(rand.NewSource(spec.Seed)))
	if err != nil {
		t.Fatalf("RunOnline: %v", err)
	}

	mgr := NewManager(Config{})
	defer mgr.Shutdown(context.Background())
	c, err := mgr.Create(spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	st := waitTerminal(t, c)
	if st.State != StateDone {
		t.Fatalf("campaign ended %s (err %q), want done", st.State, st.Error)
	}
	recs, err := c.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	if err := sameRecords(recs, ref.Records); err != nil {
		t.Errorf("dataset campaign trace diverges: %v", err)
	}
	if want := len(spec.Seeds) + len(ref.TrainRows); st.Observations != want {
		t.Fatalf("journal has %d observations, reference measured %d", st.Observations, want)
	}
}

func TestResumeContinuesByteIdentically(t *testing.T) {
	spec := clientSpec(5)
	ref := directRun(t, spec)
	dir := t.TempDir()

	// First server lifetime: observe 4 points, then shut down gracefully
	// with the campaign mid-flight.
	mgr1 := NewManager(Config{CheckpointDir: dir})
	c1, err := mgr1.Create(spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id := c1.ID
	if c1.Spec.Candidates != nil {
		t.Fatal("a live campaign kept its spec's candidate grid")
	}
	xs := driveCampaign(t, c1, 4)
	if err := mgr1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Second lifetime: resume from the checkpoint and finish.
	mgr2 := NewManager(Config{CheckpointDir: dir})
	defer mgr2.Shutdown(context.Background())
	n, err := mgr2.ResumeAll()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if n != 1 {
		t.Fatalf("resumed %d campaigns, want 1", n)
	}
	c2, err := mgr2.Get(id)
	if err != nil {
		t.Fatalf("get resumed: %v", err)
	}
	// The grid comes back from the journal header, not from the live
	// campaign, which dropped it.
	if c2.Spec.Candidates != nil {
		t.Fatal("a resumed campaign kept its spec's candidate grid")
	}
	xs = append(xs, driveCampaign(t, c2, 0)...)
	st := waitTerminal(t, c2)
	if st.State != StateDone {
		t.Fatalf("resumed campaign ended %s (err %q), want done", st.State, st.Error)
	}
	expectTrace(t, c2, xs, ref)
}

func TestResumeFinishedCampaignStaysDone(t *testing.T) {
	spec := clientSpec(9)
	dir := t.TempDir()
	mgr1 := NewManager(Config{CheckpointDir: dir})
	c1, err := mgr1.Create(spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	driveCampaign(t, c1, 0)
	ref, err := c1.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	fp := waitTerminal(t, c1).Fingerprint
	if err := mgr1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	mgr2 := NewManager(Config{CheckpointDir: dir})
	defer mgr2.Shutdown(context.Background())
	if _, err := mgr2.ResumeAll(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	c2, err := mgr2.Get(c1.ID)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	st := waitTerminal(t, c2)
	if st.State != StateDone {
		t.Fatalf("replayed campaign ended %s, want done", st.State)
	}
	if st.Fingerprint != fp {
		t.Fatalf("replay fingerprint %x, original %x", st.Fingerprint, fp)
	}
	recs, err := c2.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	if err := sameRecords(recs, ref); err != nil {
		t.Errorf("replayed trace diverges: %v", err)
	}
}

func TestResumeDetectsTamperedJournal(t *testing.T) {
	spec := clientSpec(13)
	dir := t.TempDir()
	mgr1 := NewManager(Config{CheckpointDir: dir})
	c1, err := mgr1.Create(spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	driveCampaign(t, c1, 4)
	id := c1.ID
	if err := mgr1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Corrupt one journaled measurement: replay must not silently
	// continue from a different model than the checkpoint pinned.
	path := filepath.Join(dir, id+".json")
	jf, err := loadJournal(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if jf.Fingerprint == 0 || jf.ModelVersion == 0 {
		t.Fatalf("checkpoint carries no integrity pin: %+v", jf)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// Line 0 is the header; tamper the second observation line.
	var rec journalRecord
	if err := json.Unmarshal(lines[2], &rec); err != nil || rec.Obs == nil {
		t.Fatalf("line 2 is not an observation: %v", err)
	}
	rec.Obs.Y += 0.25
	if lines[2], err = json.Marshal(&rec); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatalf("rewrite: %v", err)
	}

	mgr2 := NewManager(Config{CheckpointDir: dir})
	defer mgr2.Shutdown(context.Background())
	if _, err := mgr2.ResumeAll(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	c2, err := mgr2.Get(id)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	st := waitTerminal(t, c2)
	if st.State != StateFailed {
		t.Fatalf("tampered campaign ended %s (err %q), want failed", st.State, st.Error)
	}
}

func TestManagerDeleteRemovesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	mgr := NewManager(Config{CheckpointDir: dir})
	defer mgr.Shutdown(context.Background())
	c, err := mgr.Create(clientSpec(1))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	driveCampaign(t, c, 2)
	path := filepath.Join(dir, c.ID+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint missing before delete: %v", err)
	}
	if err := mgr.Delete(c.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survives delete: %v", err)
	}
	if _, err := mgr.Get(c.ID); err == nil {
		t.Fatal("deleted campaign still listed")
	}
	if err := mgr.Delete(c.ID); err == nil {
		t.Fatal("double delete did not error")
	}
}

func TestPredictCachesByModelVersion(t *testing.T) {
	spec := CampaignSpec{
		Source:     "dataset",
		Dataset:    &DatasetSpec{Name: "synthetic", N: 12},
		Seeds:      []int{0, 11},
		Iterations: 3,
		Restarts:   1,
	}
	mgr := NewManager(Config{CacheSize: 64})
	defer mgr.Shutdown(context.Background())
	c, err := mgr.Create(spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	waitTerminal(t, c)

	points := [][]float64{{0.5}, {1.5}, {2.5}}
	first, err := mgr.Predict(c, points)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if first.CacheHits != 0 {
		t.Fatalf("first predict reported %d cache hits", first.CacheHits)
	}
	second, err := mgr.Predict(c, points)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if second.CacheHits != len(points) {
		t.Fatalf("second predict hit %d of %d", second.CacheHits, len(points))
	}
	for i := range points {
		if second.Means[i] != first.Means[i] || second.SDs[i] != first.SDs[i] {
			t.Fatalf("cached prediction %d differs: %+v vs %+v", i, second, first)
		}
	}
	if _, err := mgr.Predict(c, [][]float64{{1, 2}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := mgr.Predict(c, [][]float64{{math.NaN()}}); err == nil {
		t.Fatal("NaN point accepted")
	}
	if _, err := mgr.Predict(c, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestPredCacheLRU(t *testing.T) {
	p := newPredCache(2)
	p.put("a", prediction(1))
	p.put("b", prediction(2))
	p.put("c", prediction(3)) // evicts a
	if p.len() != 2 {
		t.Fatalf("len = %d, want 2", p.len())
	}
	if _, ok := p.get("a"); ok {
		t.Fatal("oldest entry not evicted")
	}
	if got, ok := p.get("b"); !ok || got.Mean != 2 {
		t.Fatalf("b: got %+v ok=%v", got, ok)
	}
	p.put("d", prediction(4)) // b was just used, so c is evicted
	if _, ok := p.get("c"); ok {
		t.Fatal("LRU order ignored recency")
	}
	if _, ok := p.get("b"); !ok {
		t.Fatal("recently used entry evicted")
	}
	p.put("b", prediction(9))
	if got, _ := p.get("b"); got.Mean != 9 {
		t.Fatalf("refresh kept stale value %v", got.Mean)
	}
}

func TestSpecValidation(t *testing.T) {
	grid := testGrid()
	cases := []struct {
		name string
		spec CampaignSpec
		ok   bool
	}{
		{"valid client", clientSpec(1), true},
		{"valid dataset", CampaignSpec{Source: "dataset", Dataset: &DatasetSpec{Name: "synthetic"}, Seeds: []int{0}}, true},
		{"unknown source", CampaignSpec{Source: "oracle", Seeds: []int{0}}, false},
		{"client without grid", CampaignSpec{Source: "client", Seeds: []int{0}}, false},
		{"ragged grid", CampaignSpec{Source: "client", Candidates: [][]float64{{1}, {1, 2}}, Seeds: []int{0}}, false},
		{"NaN candidate", CampaignSpec{Source: "client", Candidates: [][]float64{{math.NaN()}}, Seeds: []int{0}}, false},
		{"seed out of range", CampaignSpec{Source: "client", Candidates: grid, Seeds: []int{len(grid)}}, false},
		{"no seeds", CampaignSpec{Source: "client", Candidates: grid}, false},
		{"dataset without name", CampaignSpec{Source: "dataset", Dataset: &DatasetSpec{}, Seeds: []int{0}}, false},
		{"unknown dataset", CampaignSpec{Source: "dataset", Dataset: &DatasetSpec{Name: "nope"}, Seeds: []int{0}}, true}, // caught at create, not validate
		{"unknown strategy", CampaignSpec{Source: "client", Candidates: grid, Seeds: []int{0}, Strategy: "gradient"}, false},
		{"negative iterations", CampaignSpec{Source: "client", Candidates: grid, Seeds: []int{0}, Iterations: -1}, false},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	// The unknown dataset IS rejected at campaign creation.
	mgr := NewManager(Config{})
	defer mgr.Shutdown(context.Background())
	if _, err := mgr.Create(CampaignSpec{Source: "dataset", Dataset: &DatasetSpec{Name: "nope"}, Seeds: []int{0}}); err == nil {
		t.Error("unknown dataset accepted at create")
	}
}

// --- HTTP layer ---

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	// Registered first so it runs LAST (cleanups are LIFO): after the
	// shutdown below, no campaign goroutine may survive.
	t.Cleanup(func() { checkLeaked(t) })
	mgr := NewManager(cfg)
	srv := httptest.NewServer(NewServer(mgr))
	t.Cleanup(func() {
		srv.Close()
		mgr.Shutdown(context.Background())
	})
	return srv, mgr
}

// tryJSON is the goroutine-safe request helper: unlike doJSON it never
// calls t.Fatal, so stress-test workers can use it off the test
// goroutine.
func tryJSON(client *http.Client, method, url string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s %s: %w (%s)", method, url, err, data)
		}
	}
	return resp.StatusCode, nil
}

func doJSON(t *testing.T, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s %s: %v (%s)", method, url, err, data)
		}
	}
	return resp.StatusCode
}

// driveHTTP answers a client campaign's suggestions over the HTTP API
// until it reaches a terminal state, returning the suggested points.
func driveHTTP(t *testing.T, srv *httptest.Server, id string) [][]float64 {
	t.Helper()
	client := srv.Client()
	deadline := time.Now().Add(60 * time.Second)
	var xs [][]float64
	for {
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s: HTTP drive timeout after %d observations", id, len(xs))
		}
		var sug Suggestion
		code := doJSON(t, client, "GET", srv.URL+"/campaigns/"+id+"/suggest", nil, &sug)
		switch code {
		case http.StatusOK:
			y, cost := testOracle(sug.X)
			req := ObserveRequest{Seq: sug.Seq, Y: al.JSONFloat(y), Cost: al.JSONFloat(cost)}
			if code := doJSON(t, client, "POST", srv.URL+"/campaigns/"+id+"/observe", req, nil); code != http.StatusOK {
				t.Fatalf("observe seq %d: HTTP %d", sug.Seq, code)
			}
			xs = append(xs, sug.X)
		case http.StatusConflict:
			var st CampaignStatus
			if code := doJSON(t, client, "GET", srv.URL+"/campaigns/"+id, nil, &st); code != http.StatusOK {
				t.Fatalf("status: HTTP %d", code)
			}
			if isTerminal(st.State) {
				return xs
			}
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("suggest: HTTP %d", code)
		}
	}
}

func TestHTTPCampaignLifecycle(t *testing.T) {
	spec := clientSpec(21)
	ref := directRun(t, spec)
	srv, mgr := newTestServer(t, Config{})
	client := srv.Client()

	var created CampaignStatus
	if code := doJSON(t, client, "POST", srv.URL+"/campaigns", spec, &created); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	if created.ID == "" || created.Source != "client" {
		t.Fatalf("create returned %+v", created)
	}

	xs := driveHTTP(t, srv, created.ID)

	var final CampaignStatus
	if code := doJSON(t, client, "GET", srv.URL+"/campaigns/"+created.ID, nil, &final); code != http.StatusOK {
		t.Fatalf("status: HTTP %d", code)
	}
	if final.State != StateDone {
		t.Fatalf("campaign ended %s (err %q)", final.State, final.Error)
	}
	if len(final.Records) != len(ref.Records) {
		t.Fatalf("HTTP status carries %d records, reference has %d", len(final.Records), len(ref.Records))
	}
	c, err := mgr.Get(created.ID)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	expectTrace(t, c, xs, ref)

	// Predict over HTTP, twice: the second batch is all cache hits.
	preq := PredictRequest{Points: [][]float64{{0.25}, {1.25}}}
	var p1, p2 PredictResponse
	if code := doJSON(t, client, "POST", srv.URL+"/campaigns/"+created.ID+"/predict", preq, &p1); code != http.StatusOK {
		t.Fatalf("predict: HTTP %d", code)
	}
	if code := doJSON(t, client, "POST", srv.URL+"/campaigns/"+created.ID+"/predict", preq, &p2); code != http.StatusOK {
		t.Fatalf("predict: HTTP %d", code)
	}
	if p2.CacheHits != len(preq.Points) {
		t.Fatalf("second predict hit %d of %d", p2.CacheHits, len(preq.Points))
	}

	// List shows the campaign; delete removes it.
	var list struct {
		Campaigns []CampaignStatus `json:"campaigns"`
	}
	if code := doJSON(t, client, "GET", srv.URL+"/campaigns", nil, &list); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != created.ID {
		t.Fatalf("list returned %+v", list)
	}
	if code := doJSON(t, client, "DELETE", srv.URL+"/campaigns/"+created.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: HTTP %d", code)
	}
	if code := doJSON(t, client, "GET", srv.URL+"/campaigns/"+created.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("status after delete: HTTP %d, want 404", code)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	client := srv.Client()
	spec := clientSpec(2)

	var created CampaignStatus
	if code := doJSON(t, client, "POST", srv.URL+"/campaigns", spec, &created); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	id := created.ID

	// Predict before the first model exists → 409.
	if code := doJSON(t, client, "POST", srv.URL+"/campaigns/"+id+"/predict", PredictRequest{Points: [][]float64{{1}}}, nil); code != http.StatusConflict {
		t.Errorf("predict before model: HTTP %d, want 409", code)
	}

	// Wait for the first suggestion, then observe with the wrong seq → 409.
	deadline := time.Now().Add(30 * time.Second)
	var sug Suggestion
	for {
		if doJSON(t, client, "GET", srv.URL+"/campaigns/"+id+"/suggest", nil, &sug) == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no suggestion appeared")
		}
		time.Sleep(time.Millisecond)
	}
	bad := ObserveRequest{Seq: sug.Seq + 99, Y: 1, Cost: 1}
	if code := doJSON(t, client, "POST", srv.URL+"/campaigns/"+id+"/observe", bad, nil); code != http.StatusConflict {
		t.Errorf("seq mismatch: HTTP %d, want 409", code)
	}

	cases := []struct {
		name, method, path string
		body               any
		want               int
	}{
		{"bad create json", "POST", "/campaigns", map[string]any{"source": 42}, http.StatusBadRequest},
		{"unknown field", "POST", "/campaigns", map[string]any{"sauce": "client"}, http.StatusBadRequest},
		{"invalid spec", "POST", "/campaigns", CampaignSpec{Source: "client", Seeds: []int{0}}, http.StatusBadRequest},
		{"unknown campaign status", "GET", "/campaigns/c9999", nil, http.StatusNotFound},
		{"unknown campaign suggest", "GET", "/campaigns/c9999/suggest", nil, http.StatusNotFound},
		{"unknown campaign delete", "DELETE", "/campaigns/c9999", nil, http.StatusNotFound},
		{"observe bad body", "POST", "/campaigns/" + id + "/observe", map[string]any{"seq": "x"}, http.StatusBadRequest},
		{"predict bad body", "POST", "/campaigns/" + id + "/predict", map[string]any{"points": "x"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := doJSON(t, client, tc.method, srv.URL+tc.path, tc.body, nil); code != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, code, tc.want)
		}
	}

	// Health and metrics endpoints respond.
	var health map[string]any
	if code := doJSON(t, client, "GET", srv.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Errorf("healthz: HTTP %d", code)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz body: %+v", health)
	}
	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("metrics content type %q", ct)
	}
	if !bytes.Contains(body, []byte("serve.request")) {
		t.Errorf("metrics snapshot does not mention serve.request: %.200s", body)
	}
}

func prediction(mean float64) gp.Prediction { return gp.Prediction{Mean: mean} }

// TestCampaignsShareGrid: two campaigns on one candidate grid hold one
// shared matrix, and the grid leaves the process-wide table once both
// have closed.
func TestCampaignsShareGrid(t *testing.T) {
	defer checkLeaked(t)
	grid := append(testGrid(), []float64{3.25}) // a grid no other test uses
	mgr := NewManager(Config{})
	defer mgr.Shutdown(context.Background())
	var cs []*Campaign
	for seed := int64(1); seed <= 2; seed++ {
		spec := clientSpec(seed)
		spec.Candidates = grid
		c, err := mgr.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	if cs[0].grid != cs[1].grid {
		t.Fatal("two campaigns on one grid hold two grids")
	}
	for _, c := range cs {
		if err := mgr.Release(c.ID); err != nil {
			t.Fatal(err)
		}
	}
	checkLeaked(t) // both actors have exited
	probe := al.ShareGrid(mat.NewFromRows(grid))
	defer probe.Release()
	if probe == cs[0].grid {
		t.Fatal("the grid is still shared after both campaigns closed")
	}
}
