package sched

import (
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// failFirstN returns a FailureFn that fails the first n attempts of
// every job with the given state, then succeeds.
func failFirstN(n int, state string) func(Job, int) (string, float64) {
	return func(_ Job, attempt int) (string, float64) {
		if attempt < n {
			return state, 0.5
		}
		return "", 0
	}
}

func TestFailedJobRequeuesWithBackoff(t *testing.T) {
	s, _ := New(Config{
		NodeCount: 1, CoresPerNode: 16,
		FailureFn:    failFirstN(2, StateFailed),
		BackoffBaseS: 10, BackoffCapS: 1000,
	})
	if _, err := s.Submit(Job{Name: "flaky", NP: 4, Run: fixed(100), MaxRetries: 3}); err != nil {
		t.Fatal(err)
	}
	recs := s.Drain()
	if len(recs) != 3 {
		t.Fatalf("want 3 attempt records (2 failures + success), got %d: %+v", len(recs), recs)
	}
	for i, want := range []string{StateFailed, StateFailed, StateCompleted} {
		if recs[i].State != want {
			t.Fatalf("attempt %d state %s, want %s", i, recs[i].State, want)
		}
		if recs[i].Attempt != i {
			t.Fatalf("attempt %d numbered %d", i, recs[i].Attempt)
		}
	}
	// Failed attempts ran half their runtime; the final one ran in full.
	if recs[0].ElapsedS != 50 || recs[1].ElapsedS != 50 || recs[2].ElapsedS != 100 {
		t.Fatalf("elapsed = %g, %g, %g", recs[0].ElapsedS, recs[1].ElapsedS, recs[2].ElapsedS)
	}
	// Backoff: retry 1 resubmits 10s after the first failure (end 50),
	// retry 2 resubmits 20s after the second failure.
	if recs[1].StartS != 60 {
		t.Fatalf("retry 1 started at %g, want 60 (50 + 10s backoff)", recs[1].StartS)
	}
	if recs[2].StartS != 130 {
		t.Fatalf("retry 2 started at %g, want 130 (110 + 20s backoff)", recs[2].StartS)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	failedBefore := obs.C("sched.jobs.failed").Value()
	requeuedBefore := obs.C("sched.jobs.requeued").Value()
	s, _ := New(Config{
		NodeCount: 1, CoresPerNode: 16,
		FailureFn: failFirstN(1<<30, StateFailed), // always fails
	})
	if _, err := s.Submit(Job{Name: "doomed", NP: 4, Run: fixed(10), MaxRetries: 2}); err != nil {
		t.Fatal(err)
	}
	recs := s.Drain()
	if len(recs) != 3 {
		t.Fatalf("want 3 failed attempts, got %d", len(recs))
	}
	for i, r := range recs {
		if r.State != StateFailed {
			t.Fatalf("attempt %d state %s", i, r.State)
		}
	}
	if d := obs.C("sched.jobs.failed").Value() - failedBefore; d != 3 {
		t.Fatalf("sched.jobs.failed rose by %d, want 3", d)
	}
	if d := obs.C("sched.jobs.requeued").Value() - requeuedBefore; d != 2 {
		t.Fatalf("sched.jobs.requeued rose by %d, want 2", d)
	}
}

func TestNodeFailAccountedSeparately(t *testing.T) {
	nodeFailBefore := obs.C("sched.jobs.node_fail").Value()
	s, _ := New(Config{
		NodeCount: 1, CoresPerNode: 16,
		FailureFn: failFirstN(1, StateNodeFail),
	})
	if _, err := s.Submit(Job{Name: "unlucky", NP: 4, Run: fixed(10), MaxRetries: 1}); err != nil {
		t.Fatal(err)
	}
	recs := s.Drain()
	if len(recs) != 2 || recs[0].State != StateNodeFail || recs[1].State != StateCompleted {
		t.Fatalf("records = %+v", recs)
	}
	if d := obs.C("sched.jobs.node_fail").Value() - nodeFailBefore; d != 1 {
		t.Fatalf("sched.jobs.node_fail rose by %d, want 1", d)
	}
}

func TestBackoffCap(t *testing.T) {
	c := Config{BackoffBaseS: 100, BackoffCapS: 350}
	for r, want := range map[int]float64{1: 100, 2: 200, 3: 350, 10: 350} {
		if got := c.backoff(r); got != want {
			t.Fatalf("backoff(%d) = %g, want %g", r, got, want)
		}
	}
	// Defaults.
	d := Config{}
	if got := d.backoff(1); got != DefaultBackoffBaseS {
		t.Fatalf("default backoff(1) = %g", got)
	}
	if got := d.backoff(100); got != DefaultBackoffCapS {
		t.Fatalf("default backoff(100) = %g, want cap", got)
	}
}

func TestNoRetriesWithoutBudget(t *testing.T) {
	s, _ := New(Config{
		NodeCount: 1, CoresPerNode: 16,
		FailureFn: failFirstN(1, StateFailed),
	})
	if _, err := s.Submit(Job{Name: "once", NP: 4, Run: fixed(10)}); err != nil {
		t.Fatal(err)
	}
	recs := s.Drain()
	if len(recs) != 1 || recs[0].State != StateFailed {
		t.Fatalf("records = %+v", recs)
	}
}

func TestStragglerSlowdownApplied(t *testing.T) {
	s, _ := New(Config{
		NodeCount: 1, CoresPerNode: 16,
		SlowdownFn: func(_ Job, _ int) float64 { return 3 },
	})
	if _, err := s.Submit(Job{Name: "slow", NP: 4, Run: fixed(10)}); err != nil {
		t.Fatal(err)
	}
	recs := s.Drain()
	if recs[0].ElapsedS != 30 {
		t.Fatalf("straggled elapsed %g, want 30", recs[0].ElapsedS)
	}
	if recs[0].State != StateCompleted {
		t.Fatalf("state %s", recs[0].State)
	}
}

// A straggler pushed past its walltime is killed as TIMEOUT, not
// requeued — walltime kills are final.
func TestStragglerHitsWalltime(t *testing.T) {
	s, _ := New(Config{
		NodeCount: 1, CoresPerNode: 16,
		SlowdownFn: func(_ Job, _ int) float64 { return 10 },
	})
	if _, err := s.Submit(Job{Name: "s", NP: 4, Run: fixed(10), WalltimeS: 50, MaxRetries: 5}); err != nil {
		t.Fatal(err)
	}
	recs := s.Drain()
	if len(recs) != 1 || recs[0].State != StateTimeout || recs[0].ElapsedS != 50 {
		t.Fatalf("records = %+v", recs)
	}
}

// FaultHooks wires an injector end to end through Drain: with the
// injector seeded, failures appear, requeues happen, and the whole
// campaign still drains to terminal states.
func TestFaultHooksEndToEnd(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 21, JobFailRate: 0.3, NodeFailRate: 0.1, StragglerRate: 0.2})
	failure, slowdown := FaultHooks(inj)
	s, _ := New(Config{
		NodeCount: 4, CoresPerNode: 16,
		FailureFn: failure, SlowdownFn: slowdown,
		BackoffBaseS: 5,
	})
	const jobs = 60
	for i := 0; i < jobs; i++ {
		if _, err := s.Submit(Job{Name: "j", NP: 8, Run: fixed(20), MaxRetries: 4}); err != nil {
			t.Fatal(err)
		}
	}
	recs := s.Drain()
	if len(recs) < jobs {
		t.Fatalf("only %d records for %d jobs", len(recs), jobs)
	}
	var failed, completed int
	done := map[int]bool{}
	for _, r := range recs {
		switch r.State {
		case StateFailed, StateNodeFail:
			failed++
		case StateCompleted:
			completed++
			done[r.JobID] = true
		}
	}
	if failed == 0 {
		t.Fatal("injector produced no failures")
	}
	if len(done) != jobs {
		t.Fatalf("%d of %d jobs completed within their retry budget", len(done), jobs)
	}
	if peak := peakCoresInUse(recs); peak > s.TotalCores() {
		t.Fatalf("oversubscribed: peak %d cores of %d", peak, s.TotalCores())
	}

	// Nil-injector hooks are no-ops.
	nf, ns := FaultHooks(nil)
	if st, _ := nf(Job{ID: 1}, 0); st != "" {
		t.Fatalf("nil injector failure state %q", st)
	}
	if f := ns(Job{ID: 1}, 0); f != 1 {
		t.Fatalf("nil injector slowdown %g", f)
	}
}

// End to end: a drained sweep must never oversubscribe the partition.
func TestSweepNeverOversubscribes(t *testing.T) {
	s, _ := New(Config{NodeCount: 4, CoresPerNode: 16, Policy: Backfill})
	for i := 0; i < 40; i++ {
		np := []int{4, 8, 16, 32}[i%4]
		s.Submit(Job{NP: np, Run: fixed(float64(5 + i%7)), EstimateS: 12})
	}
	recs := s.Drain()
	if got := peakCoresInUse(recs); got > s.TotalCores() {
		t.Fatalf("oversubscribed: peak %d > %d", got, s.TotalCores())
	}
}

// peakCoresInUse returns the maximum simultaneous core usage across the
// records — a sanity check that the scheduler never oversubscribed the
// partition.
func peakCoresInUse(records []Record) int {
	type event struct {
		t     float64
		delta int
	}
	events := make([]event, 0, 2*len(records))
	for _, r := range records {
		events = append(events, event{r.StartS, r.NP}, event{r.EndS, -r.NP})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		// Process releases before acquisitions at the same instant.
		return events[i].delta < events[j].delta
	})
	cur, peak := 0, 0
	for _, e := range events {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
