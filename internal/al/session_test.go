package al

import (
	"encoding/json"
	"math"
	"math/rand"
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

// ReoptimizeEvery with the incremental conditioning path must not change the
// sequence of selections versus per-iteration refits with identical
// hyperparameters frozen (sanity: conditioning is exact).
func TestConditionFastPathConsistency(t *testing.T) {
	d := synthDS(t, 40, 0.05, 91)
	p := synthPartition(t, d, 92)
	// Long reopt interval: iterations 2..6 all run through conditioning.
	cfg := quickLoop(VarianceReduction{}, 6)
	cfg.ReoptimizeEvery = 10
	res, err := Run(d, p, cfg, rand.New(rand.NewSource(93)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 6 {
		t.Fatalf("%d records", len(res.Records))
	}
	// Noise is frozen between refits.
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Noise != res.Records[0].Noise {
			t.Fatalf("noise drifted at iter %d without a refit", i+1)
		}
	}
	// Training size still grows 1 per iteration.
	for i, r := range res.Records {
		if r.Train != len(p.Initial)+i+1 {
			t.Fatalf("train size %d at iter %d", r.Train, i+1)
		}
	}
}
