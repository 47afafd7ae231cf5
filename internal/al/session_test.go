package al

import (
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// A session without a test set has no held-out truth: every record
// reports NaN for both RMSE and Coverage, which JSON shows as null.
func TestSessionWithoutTestSetReportsNaN(t *testing.T) {
	res, err := RunOnline(goldenGrid(25), []int{0, 24}, plainOracle(), quickLoop(VarianceReduction{}, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("%d records, want 4", len(res.Records))
	}
	for _, r := range res.Records {
		if !math.IsNaN(r.RMSE) || !math.IsNaN(r.Coverage) {
			t.Fatalf("iteration %d: RMSE %v, Coverage %v; want NaN for both", r.Iter, r.RMSE, r.Coverage)
		}
		b, err := json.Marshal(ToJSONRecord(r))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), `"rmse":null`) || !strings.Contains(string(b), `"coverage":null`) {
			t.Fatalf("iteration %d: JSON %s, want null rmse and coverage", r.Iter, b)
		}
	}
}

// A checkpoint carries the AMSD history through the iteration it was
// written at, so a run resumed from any cut stops under the convergence
// rule exactly where the uninterrupted run does.
func TestResumeKeepsConvergenceHistory(t *testing.T) {
	ds, part := runGoldenDS(t)
	cfg := quickLoop(VarianceReduction{}, 0)
	cfg.ConvergeWindow = 2
	cfg.ConvergeTol = 0.2
	full, err := Run(ds, part, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Converged {
		t.Fatal("reference run did not converge")
	}
	for cut := 1; cut < len(full.Records); cut++ {
		path := filepath.Join(t.TempDir(), "ck.json")
		interrupted := cfg
		interrupted.CheckpointPath = path
		interrupted.Iterations = cut
		if _, err := Run(ds, part, interrupted, nil); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		res, err := Resume(ds, part, cfg, path)
		if err != nil {
			t.Fatalf("resume at %d: %v", cut, err)
		}
		sameRecords(t, res.Records, full.Records)
		if !res.Converged {
			t.Fatalf("resume at %d: run did not converge", cut)
		}
	}
}
