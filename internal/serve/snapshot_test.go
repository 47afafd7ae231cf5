package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/al"
	"repro/internal/obs"
)

// snapSpec is a client campaign long enough to journal a periodic
// snapshot (after observation 32) and a terminal one (after 42).
func snapSpec(strategy, model string, seed int64) CampaignSpec {
	grid := make([][]float64, 30)
	for i := range grid {
		grid[i] = []float64{3 * float64(i) / 29}
	}
	spec := CampaignSpec{
		Name: "snapshot", Source: "client", Candidates: grid, Seeds: []int{0, 29},
		Strategy: strategy, Iterations: 40, Restarts: 1, Seed: seed, Model: model,
		ReoptimizeEvery: 3,
	}
	if model == al.ModelSparse {
		spec.Inducing = 8
	}
	return spec
}

// journalOf drives spec to its end on an in-memory store and returns the
// campaign id, its journal and its final status.
func journalOf(t *testing.T, spec CampaignSpec) (string, []byte, CampaignStatus) {
	t.Helper()
	ms := NewMemStore()
	mgr := NewManager(Config{Store: ms})
	defer mgr.Shutdown(context.Background())
	c, err := mgr.Create(spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	driveCampaign(t, c, 0)
	st := waitTerminal(t, c)
	if st.State != StateDone {
		t.Fatalf("campaign ended %s (err %q)", st.State, st.Error)
	}
	data, err := ms.Export(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	return c.ID, data, st
}

// journalLines splits a journal into its lines, each without the newline.
func journalLines(data []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

func isSnapshotLine(line []byte) bool { return bytes.HasPrefix(line, []byte(`{"s":`)) }

// cutJournal is the journal a crash after observation k leaves: every
// line up to the (k+1)-th observation, terminal lines dropped. A k past
// the last observation keeps the whole journal.
func cutJournal(data []byte, k int) []byte {
	var out bytes.Buffer
	n := 0
	for _, line := range journalLines(data) {
		if bytes.HasPrefix(line, []byte(`{"o":`)) {
			if n == k {
				break
			}
			n++
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	if n < k {
		return data
	}
	return out.Bytes()
}

// stripSnapshots drops every snapshot line, leaving a journal that
// resumes by full replay.
func stripSnapshots(data []byte) []byte {
	var out bytes.Buffer
	for _, line := range journalLines(data) {
		if !isSnapshotLine(line) {
			out.Write(line)
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}

// resumeJournal installs data in a fresh store, resumes it and waits
// until the campaign has rebuilt its session: it asks for a point or
// has ended.
func resumeJournal(t *testing.T, id string, data []byte) (*Manager, *Campaign, CampaignStatus) {
	t.Helper()
	ms := NewMemStore()
	if err := ms.Import(id, data); err != nil {
		t.Fatalf("import: %v", err)
	}
	mgr := NewManager(Config{Store: ms})
	if err := mgr.ResumeOne(id); err != nil {
		t.Fatalf("resume: %v", err)
	}
	c, err := mgr.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Status(false)
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending != nil || isTerminal(st.State) {
			return mgr, c, st
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed campaign stuck in state %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// sessionSnapshot is the campaign session's checkpoint as JSON: every
// field a restore or a replay must agree on, RNG draws included.
func sessionSnapshot(t *testing.T, c *Campaign) []byte {
	t.Helper()
	var ck *al.Checkpoint
	var ok bool
	if err := c.doCtx(context.Background(), func(st *campaignState) { ck, ok = st.sess.Snapshot() }); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("session cannot snapshot")
	}
	data, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameStatus compares what a client sees of two resumed campaigns.
func sameStatus(a, b CampaignStatus) error {
	if a.State != b.State || a.ModelVersion != b.ModelVersion || a.Fingerprint != b.Fingerprint ||
		a.Observations != b.Observations || a.Converged != b.Converged {
		return fmt.Errorf("state %s/%s, model version %d/%d, fingerprint %x/%x, observations %d/%d, converged %v/%v",
			a.State, b.State, a.ModelVersion, b.ModelVersion, a.Fingerprint, b.Fingerprint,
			a.Observations, b.Observations, a.Converged, b.Converged)
	}
	if (a.Pending == nil) != (b.Pending == nil) {
		return fmt.Errorf("pending suggestion %v vs %v", a.Pending, b.Pending)
	}
	if a.Pending != nil {
		if a.Pending.Seq != b.Pending.Seq || len(a.Pending.X) != len(b.Pending.X) {
			return fmt.Errorf("pending suggestion %+v vs %+v", *a.Pending, *b.Pending)
		}
		for i := range a.Pending.X {
			if math.Float64bits(a.Pending.X[i]) != math.Float64bits(b.Pending.X[i]) {
				return fmt.Errorf("pending suggestion %+v vs %+v", *a.Pending, *b.Pending)
			}
		}
	}
	return nil
}

// A journal restored from its snapshot and the same journal with its
// snapshot lines stripped, replayed in full, give the same campaign:
// state, model version and fingerprint, bit-identical records, the same
// next suggestion, and — once both are driven to the end — the same
// session, RNG draws included. Cuts fall before the first snapshot,
// exactly at it, in the tail after it and at the terminal state.
func TestSnapshotResumeMatchesFullReplay(t *testing.T) {
	specs := []CampaignSpec{
		snapSpec("variance-reduction", al.ModelDense, 3),
		snapSpec("cost-efficiency", al.ModelDense, 4),
		snapSpec("eps-greedy", al.ModelDense, 5),
		snapSpec("qbc", al.ModelSparse, 6),
		snapSpec("variance-reduction", al.ModelSparse, 7),
	}
	for _, spec := range specs {
		id, full, ref := journalOf(t, spec)
		if got := bytes.Count(full, []byte(`{"s":`)); got != 2 {
			t.Fatalf("%s/%s: journal holds %d snapshots, want 2 (periodic and terminal)", spec.Strategy, spec.Model, got)
		}
		for _, cut := range []int{20, 32, 37, 42} {
			name := fmt.Sprintf("%s/%s/cut%d", spec.Strategy, spec.Model, cut)
			data := cutJournal(full, cut)
			restoredBefore := obs.C("serve.resume.snapshot").Value()
			mgrS, cS, stS := resumeJournal(t, id, data)
			if restored := obs.C("serve.resume.snapshot").Value() - restoredBefore; (cut >= 32) != (restored == 1) {
				t.Fatalf("%s: %d snapshot restores", name, restored)
			}
			fullBefore := obs.C("serve.resume.full").Value()
			mgrR, cR, stR := resumeJournal(t, id, stripSnapshots(data))
			if obs.C("serve.resume.full").Value()-fullBefore != 1 {
				t.Fatalf("%s: the stripped journal did not replay in full", name)
			}
			if err := sameStatus(stS, stR); err != nil {
				t.Fatalf("%s: snapshot restore and full replay differ: %v", name, err)
			}
			recS, _ := cS.Records()
			recR, _ := cR.Records()
			if err := sameRecords(recS, recR); err != nil {
				t.Fatalf("%s: records differ: %v", name, err)
			}
			xsS, xsR := driveCampaign(t, cS, 0), driveCampaign(t, cR, 0)
			if fmt.Sprint(xsS) != fmt.Sprint(xsR) {
				t.Fatalf("%s: the campaigns went on to ask %v and %v", name, xsS, xsR)
			}
			endS, endR := waitTerminal(t, cS), waitTerminal(t, cR)
			if err := sameStatus(endS, endR); err != nil {
				t.Fatalf("%s: finished campaigns differ: %v", name, err)
			}
			if endS.Fingerprint != ref.Fingerprint || endS.ModelVersion != ref.ModelVersion {
				t.Fatalf("%s: resumed campaign ended on fingerprint %x version %d, uninterrupted %x version %d",
					name, endS.Fingerprint, endS.ModelVersion, ref.Fingerprint, ref.ModelVersion)
			}
			if s, r := sessionSnapshot(t, cS), sessionSnapshot(t, cR); !bytes.Equal(s, r) {
				t.Fatalf("%s: final sessions differ:\nsnapshot: %s\nreplay:   %s", name, s, r)
			}
			mgrS.Shutdown(context.Background())
			mgrR.Shutdown(context.Background())
		}
	}
}

// eventLog collects obs events for a test.
type eventLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *eventLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *eventLog) has(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Contains(l.buf.String(), `"event":"`+name+`"`)
}

func captureEvents(t *testing.T) *eventLog {
	l := &eventLog{}
	obs.SetSink(l)
	t.Cleanup(func() { obs.SetSink(nil) })
	return l
}

// editSnapshot rewrites the i-th snapshot line of a journal (0-based).
func editSnapshot(t *testing.T, data []byte, i int, edit func(rec *journalSnapshot)) []byte {
	t.Helper()
	lines := journalLines(data)
	n := 0
	for j, line := range lines {
		if !isSnapshotLine(line) {
			continue
		}
		if n++; n-1 != i {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		edit(rec.Snapshot)
		var err error
		if lines[j], err = json.Marshal(&rec); err != nil {
			t.Fatal(err)
		}
		return append(bytes.Join(lines, []byte("\n")), '\n')
	}
	t.Fatalf("journal has no snapshot %d", i)
	return nil
}

// A snapshot whose restored model is not the one it pins fails the
// campaign, as a replay that diverges from its pin does.
func TestDoctoredSnapshotFingerprintFailsCampaign(t *testing.T) {
	events := captureEvents(t)
	id, full, _ := journalOf(t, snapSpec("variance-reduction", al.ModelDense, 8))
	data := editSnapshot(t, full, 1, func(rec *journalSnapshot) { rec.FP = "123abc" })
	mgr, _, st := resumeJournal(t, id, data)
	defer mgr.Shutdown(context.Background())
	if st.State != StateFailed || !strings.Contains(st.Error, "pinned") {
		t.Fatalf("campaign with a doctored snapshot ended %s (err %q), want failed", st.State, st.Error)
	}
	if !events.has("serve.resume.integrity") {
		t.Fatal("no serve.resume.integrity event")
	}
}

// A snapshot that fails validation, or was torn by a crash, gives way
// to the snapshot before it or to a full replay, and the campaign still
// ends on the uninterrupted fingerprint.
func TestBadSnapshotFallsBack(t *testing.T) {
	events := captureEvents(t)
	spec := snapSpec("eps-greedy", al.ModelDense, 9)
	spec.Iterations = 70 // snapshots after 32, 64 and 72 observations
	id, full, ref := journalOf(t, spec)
	badRow := func(rec *journalSnapshot) {
		var ck al.Checkpoint
		if err := json.Unmarshal(rec.Session, &ck); err != nil {
			t.Fatal(err)
		}
		ck.Train[0] = 999999
		var err error
		if rec.Session, err = json.Marshal(&ck); err != nil {
			t.Fatal(err)
		}
	}
	torn := cutJournal(full, 32)
	torn = torn[:len(torn)-len(journalLines(torn)[len(journalLines(torn))-1])/2-1]

	cases := []struct {
		name      string
		data      []byte
		restores  int64 // snapshot restores expected
		wantTail  int   // observations replayed after the snapshot
		wantEvent bool  // a serve.resume.snapshot.invalid event
	}{
		{"newest invalid, previous restored", editSnapshot(t, full, 2, badRow), 1, 8, true},
		{"both kept snapshots invalid, full replay", editSnapshot(t, editSnapshot(t, full, 2, badRow), 1, badRow), 0, 0, true},
		{"torn snapshot tail, full replay", torn, 0, 0, false},
		{"undecodable newest, previous restored", editSnapshot(t, full, 2, func(rec *journalSnapshot) { rec.Session = json.RawMessage(`{"train":"x"}`) }), 1, 8, true},
	}
	for _, tc := range cases {
		events.buf.Reset()
		before := obs.C("serve.resume.snapshot").Value()
		tail := obs.H("serve.resume.tail").Sum()
		mgr, c, _ := resumeJournal(t, id, tc.data)
		replay := int(obs.H("serve.resume.tail").Sum() - tail)
		if got := obs.C("serve.resume.snapshot").Value() - before; got != tc.restores {
			t.Fatalf("%s: %d snapshot restores, want %d", tc.name, got, tc.restores)
		}
		if tc.restores == 1 && replay != tc.wantTail {
			t.Fatalf("%s: restored snapshot leaves %d observations to replay, want %d", tc.name, replay, tc.wantTail)
		}
		if events.has("serve.resume.snapshot.invalid") != tc.wantEvent {
			t.Fatalf("%s: serve.resume.snapshot.invalid event %v, want %v", tc.name, !tc.wantEvent, tc.wantEvent)
		}
		driveCampaign(t, c, 0)
		st := waitTerminal(t, c)
		if st.State != StateDone || st.Fingerprint != ref.Fingerprint || st.Observations != ref.Observations {
			t.Fatalf("%s: ended %s with fingerprint %x after %d observations, uninterrupted %x after %d",
				tc.name, st.State, st.Fingerprint, st.Observations, ref.Fingerprint, ref.Observations)
		}
		mgr.Shutdown(context.Background())
	}
}
