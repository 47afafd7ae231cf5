package al

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

func TestBatchModeValidation(t *testing.T) {
	d := synthDS(t, 30, 0.05, 80)
	p := synthPartition(t, d, 81)
	batch := func(mod func(*LoopConfig)) LoopConfig {
		cfg := quickLoop(VarianceReduction{}, 6)
		cfg.BatchSize = 2
		mod(&cfg)
		return cfg
	}
	for name, cfg := range map[string]LoopConfig{
		"negative batch size": batch(func(c *LoopConfig) { c.BatchSize = -1 }),
		"loop validation":     {BatchSize: 2},
		"sparse tier":         batch(func(c *LoopConfig) { c.Model = ModelSparse }),
		"auto tier":           batch(func(c *LoopConfig) { c.Model = ModelAuto }),
		"incremental updates": batch(func(c *LoopConfig) { c.ReoptimizeEvery = 2 }),
		"checkpointing":       batch(func(c *LoopConfig) { c.CheckpointPath = t.TempDir() + "/ck.json" }),
	} {
		if _, err := Run(d, p, cfg, nil); err == nil {
			t.Errorf("%s: Run accepted the config", name)
		}
		if _, err := NewSession(goldenGrid(5), []int{0}, cfg, nil); err == nil {
			t.Errorf("%s: NewSession accepted the config", name)
		}
	}
	bad := dataset.Partition{Initial: []int{0}}
	if _, err := Run(d, bad, batch(func(*LoopConfig) {}), nil); err == nil {
		t.Fatal("expected empty-active error")
	}
}

func TestBatchModeReducesRMSE(t *testing.T) {
	d := synthDS(t, 60, 0.05, 82)
	p := synthPartition(t, d, 83)
	cfg := quickLoop(VarianceReduction{}, 6)
	cfg.BatchSize = 3
	res, err := Run(d, p, cfg, rand.New(rand.NewSource(84)))
	if err != nil {
		t.Fatal(err)
	}
	rounds := batchRounds(d, res.Records)
	if len(rounds) != 6 {
		t.Fatalf("%d rounds", len(rounds))
	}
	first, last := res.Records[0], res.Records[len(res.Records)-1]
	if !(last.RMSE < first.RMSE) {
		t.Fatalf("RMSE did not improve: %g -> %g", first.RMSE, last.RMSE)
	}
	for i, r := range rounds {
		if len(r.rows) != 3 {
			t.Fatalf("round %d picked %d experiments", i, len(r.rows))
		}
		if r.train != 1+3*(i+1) {
			t.Fatalf("round %d train size %d", i, r.train)
		}
		// Wall clock must be below resource cost (parallelism pays).
		if wall, cost := math.Float64frombits(r.bits[3]), math.Float64frombits(r.bits[2]); wall > cost+1e-9 {
			t.Fatalf("round %d wall clock %g exceeds total cost %g", i, wall, cost)
		}
	}
	for i, r := range res.Records {
		if r.Iter != i/3+1 {
			t.Fatalf("record %d has iteration %d", i, r.Iter)
		}
	}
}

// A round's picks must be distinct — the believer must not select the
// same experiment twice within one batch.
func TestBatchModeDistinctWithinRound(t *testing.T) {
	d := synthDS(t, 40, 0.1, 85)
	p := synthPartition(t, d, 86)
	cfg := quickLoop(VarianceReduction{}, 4)
	cfg.BatchSize = 4
	res, err := Run(d, p, cfg, rand.New(rand.NewSource(87)))
	if err != nil {
		t.Fatal(err)
	}
	for i, round := range batchRounds(d, res.Records) {
		seen := map[int]bool{}
		for _, row := range round.rows {
			if seen[row] {
				t.Fatalf("round %d picked row %d twice", i+1, row)
			}
			seen[row] = true
		}
	}
}

// Parallel batches with wall-clock accounting must reach a given RMSE in
// less wall-clock than the same number of sequential experiments.
func TestBatchModeWallClockAdvantage(t *testing.T) {
	d := synthDS(t, 60, 0.05, 88)
	p := synthPartition(t, d, 89)
	seq, err := Run(d, p, quickLoop(VarianceReduction{}, 12), rand.New(rand.NewSource(90)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickLoop(VarianceReduction{}, 3)
	cfg.BatchSize = 4
	par, err := Run(d, p, cfg, rand.New(rand.NewSource(90)))
	if err != nil {
		t.Fatal(err)
	}
	// Both ran 12 experiments; parallel wall clock counts only the max
	// per round.
	rounds := batchRounds(d, par.Records)
	seqWall := seq.Records[len(seq.Records)-1].CumCost
	parWall := math.Float64frombits(rounds[len(rounds)-1].bits[3])
	if parWall >= seqWall {
		t.Fatalf("parallel wall clock %g not below sequential %g", parWall, seqWall)
	}
	if math.IsNaN(par.Records[len(par.Records)-1].RMSE) {
		t.Fatal("missing RMSE")
	}
}
