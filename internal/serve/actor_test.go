package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// campaignStacks counts the goroutines running any Campaign method.
func campaignStacks() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "serve.(*Campaign)") {
			count++
		}
	}
	return count
}

// An idle client campaign — parked on a suggestion nobody has answered
// yet — holds exactly one goroutine: its actor.
func TestIdleClientCampaignHoldsOneGoroutine(t *testing.T) {
	const n = 200
	defer checkLeaked(t)
	mgr := NewManager(Config{})
	defer mgr.Shutdown(context.Background())
	for i := 0; i < n; i++ {
		c, err := mgr.Create(clientSpec(int64(i + 1)))
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, err := c.Suggest(); err == nil {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("campaign %s never parked at its first seed: %v", c.ID, err)
			}
		}
	}
	// Poll: goroutines of campaigns from earlier tests may still be
	// exiting.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := campaignStacks()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d idle campaigns run %d campaign goroutines, want %d", n, got, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Replay checks every journaled input point against the point the
// session asks for: a journal entry whose x was altered — its y left
// intact, so the model fingerprint still matches — must fail the
// campaign instead of attributing y to a different point.
func TestResumeDetectsTamperedJournalX(t *testing.T) {
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

	path := filepath.Join(dir, id+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// Line 0 is the header; move the third observation's point.
	var rec journalRecord
	if err := json.Unmarshal(lines[3], &rec); err != nil || rec.Obs == nil || len(rec.Obs.X) != 1 {
		t.Fatalf("line 3 is not an observation with a point: %v", err)
	}
	rec.Obs.X[0] += 0.125
	if lines[3], err = json.Marshal(&rec); err != nil {
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
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c2.Status(false)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.State != StateReplaying && st.State != StateRunning {
			if st.State != StateFailed || !strings.Contains(st.Error, "journal entry 2") {
				t.Fatalf("tampered campaign reached %s (err %q), want failed at journal entry 2", st.State, st.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck in state %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
}
