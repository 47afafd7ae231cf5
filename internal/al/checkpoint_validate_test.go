package al

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A doctored checkpoint is refused with an error, never a panic, on
// both restore paths: Resume from a file and RestoreSession from a
// journal snapshot. Each case edits the committed checkpoint in one
// field.
func TestCheckpointValidation(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "run_faulted_iter6.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, want string
		edit       func(ck *Checkpoint)
	}{
		{"train row out of range", "train row 999999", func(ck *Checkpoint) { ck.Train[0] = 999999 }},
		{"negative train row", "train row -1", func(ck *Checkpoint) { ck.Train[1] = -1 }},
		{"pool row out of range", "pool row 40", func(ck *Checkpoint) { ck.Pool[0] = 40 }},
		{"attempts key out of range", "row 77", func(ck *Checkpoint) { ck.Attempts[77] = 1 }},
		{"train/train_y length mismatch", "responses", func(ck *Checkpoint) { ck.TrainY = ck.TrainY[1:] }},
		{"refit prefix past the train set", "refit prefix", func(ck *Checkpoint) { ck.RefitN = len(ck.Train) + 1 }},
		{"empty refit prefix", "refit prefix", func(ck *Checkpoint) { ck.RefitN = 0 }},
		{"next iteration zero", "next iteration", func(ck *Checkpoint) { ck.NextIter = 0 }},
		{"hyperparameter count", "hyperparameters", func(ck *Checkpoint) { ck.RefitHyper = append(ck.RefitHyper, 0.5) }},
		{"seed count past the train set", "seed count", func(ck *Checkpoint) { ck.NSeeds = len(ck.Train) + 1 }},
	}
	ds, part := runGoldenDS(t)
	cfg := runGoldenFaulted()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ck Checkpoint
			if err := json.Unmarshal(raw, &ck); err != nil {
				t.Fatal(err)
			}
			tc.edit(&ck)
			data, err := json.Marshal(&ck)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "ck.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Resume(ds, part, cfg, path); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Resume: error %v, want one mentioning %q", err, tc.want)
			}
			if _, err := RestoreSession(ds.Matrix(nil), cfg, &ck); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("RestoreSession: error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// A session snapshot restores to a session that continues exactly as
// the snapshotted one: same asks, same records, same RNG position.
func TestSnapshotRestoreContinuesIdentically(t *testing.T) {
	grid := goldenGrid(25)
	cfg := quickLoop(EpsilonGreedy{Base: VarianceReduction{}, Eps: 0.3}, 12)
	cfg.Seed = 9
	cfg.ReoptimizeEvery = 3
	oracle := plainOracle()

	ref, err := NewSession(grid, []int{0, 24}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	step := func(s *Session) []float64 {
		x, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if x != nil {
			s.Tell(oracle(x))
		}
		return x
	}
	if _, ok := ref.Snapshot(); ok {
		t.Fatal("a session with seeds still to measure took a snapshot")
	}
	for i := 0; i < 7; i++ {
		step(ref)
	}
	ck, ok := ref.Snapshot()
	if !ok {
		t.Fatal("no snapshot at an iteration boundary")
	}
	if _, err := ref.Next(); err != nil {
		t.Fatal(err)
	}
	if _, ok := ref.Snapshot(); ok {
		t.Fatal("a session with a point outstanding took a snapshot")
	}
	data, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got, err := RestoreSession(grid, cfg, &back)
	if err != nil {
		t.Fatal(err)
	}
	ref.Tell(oracle(ref.x))
	step(got)
	for {
		want, have := step(ref), step(got)
		if (want == nil) != (have == nil) || (want != nil && want[0] != have[0]) {
			t.Fatalf("restored session asked for %v, the original for %v", have, want)
		}
		if want == nil {
			break
		}
	}
	sameRecords(t, got.Result().Records, ref.Result().Records)
	if got.cs.draws != ref.cs.draws {
		t.Fatalf("restored session drew %d times, the original %d", got.cs.draws, ref.cs.draws)
	}
	if got.Result().Final.Fingerprint() != ref.Result().Final.Fingerprint() {
		t.Fatal("restored session ended on another model")
	}
}
