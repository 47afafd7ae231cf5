package al

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gp"
	"repro/internal/kernel"
)

// Every zoo strategy must produce the same selection trace twice under a
// fixed seed — QBC consumes the loop RNG for its bootstrap committees,
// so this pins the unconditional-draw contract.
func TestZooDeterministicTraces(t *testing.T) {
	ds := synthDS(t, 40, 0.05, 3)
	part := synthPartition(t, ds, 4)
	for _, s := range []Strategy{
		QBC{K: 3},
		QBC{K: 3, Gamma: 1, Perturb: 0.05},
		Diversity{Lambda: 0.5},
		EMCMGradient{},
		EMCMGradient{Gamma: 1},
	} {
		t.Run(s.Name(), func(t *testing.T) {
			cfg := quickLoop(s, 5)
			cfg.Seed = 7
			a, err := Run(ds, part, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(ds, part, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, b.Records, a.Records)
		})
	}
}

// Serial and parallel candidate scoring must yield byte-identical traces
// for the new strategies (pool > minParallelScore so the parallel path
// actually engages).
func TestZooSerialVsParallelIdentity(t *testing.T) {
	ds := synthDS(t, 60, 0.05, 5)
	part := synthPartition(t, ds, 6)
	for _, s := range []Strategy{QBC{K: 3}, Diversity{}, EMCMGradient{Gamma: 0.5}} {
		t.Run(s.Name(), func(t *testing.T) {
			serial := quickLoop(s, 4)
			serial.Seed = 9
			serial.ScoreWorkers = 1
			par := serial
			par.ScoreWorkers = 8
			a, err := Run(ds, part, serial, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(ds, part, par, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, b.Records, a.Records)
		})
	}
}

// Checkpoint/resume must replay a QBC run bit for bit: the committee's
// RNG draws are part of the counted stream the checkpoint restores.
func TestQBCCheckpointResume(t *testing.T) {
	ds := synthDS(t, 40, 0.05, 3)
	part := synthPartition(t, ds, 4)
	dir := t.TempDir()

	base := quickLoop(QBC{K: 3, Perturb: 0.02}, 8)
	base.Seed = 13
	base.ReoptimizeEvery = 3

	ref := base
	ref.CheckpointPath = filepath.Join(dir, "ref.json")
	full, err := Run(ds, part, ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "cut.json")
	interrupted := base
	interrupted.CheckpointPath = path
	interrupted.Iterations = 4
	if _, err := Run(ds, part, interrupted, nil); err != nil {
		t.Fatal(err)
	}
	cont := base
	cont.CheckpointPath = path
	res, err := Resume(ds, part, cont, path)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, res.Records, full.Records)
}

func TestRegistryResolvesEveryName(t *testing.T) {
	for _, name := range StrategyNames() {
		s, err := NewStrategy(name, StrategyParams{})
		if err != nil {
			t.Fatalf("NewStrategy(%q): %v", name, err)
		}
		if s.Name() == "" {
			t.Fatalf("strategy %q has empty Name()", name)
		}
	}
	if _, err := NewStrategy("no-such-strategy", StrategyParams{}); err == nil {
		t.Fatal("unknown name must error")
	} else if !strings.Contains(err.Error(), "variance-reduction") {
		t.Fatalf("error should list the registry, got: %v", err)
	}
	// Empty name is the paper default.
	s, err := NewStrategy("", StrategyParams{})
	if err != nil || s.Name() != "variance-reduction" {
		t.Fatalf("empty name resolved to %v, %v", s, err)
	}
	// Epsilon wraps any non-eps-greedy base.
	s, err = NewStrategy("qbc", StrategyParams{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(EpsilonGreedy); !ok {
		t.Fatalf("Epsilon>0 should wrap in EpsilonGreedy, got %T", s)
	}
	// qbc-cost defaults γ to 1.
	s, err = NewStrategy("qbc-cost", StrategyParams{})
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := s.(QBC); !ok || q.Gamma != 1 {
		t.Fatalf("qbc-cost = %#v, want QBC{Gamma:1}", s)
	}
}

func TestDiversityPrefersUnexploredRegion(t *testing.T) {
	// Train the model on points clustered at the left edge; with equal
	// SDs the diversity bonus must send selection to the far candidate.
	ds := synthDS(t, 30, 0, 1)
	rng := rand.New(rand.NewSource(1))
	model, err := gp.Fit(gp.Config{
		Kernel:     kernel.NewRBF(1, 1),
		NoiseInit:  0.1,
		NoiseFloor: 1e-2,
		Restarts:   1,
	}, ds.Matrix([]int{0, 1, 2}), ds.RespVec("y", []int{0, 1, 2}), rng)
	if err != nil {
		t.Fatal(err)
	}
	cands := []Candidate{
		{Row: 3, X: []float64{0.4}, Pred: gp.Prediction{Mean: 0, SD: 0.5}},
		{Row: 29, X: []float64{4.0}, Pred: gp.Prediction{Mean: 0, SD: 0.5}},
	}
	got := Diversity{Lambda: 1}.SelectWithModel(denseRegressor{model}, cands, nil)
	if got != 1 {
		t.Fatalf("Diversity picked %d, want the far candidate (1)", got)
	}
	// And with no model it degrades to argmax σ.
	cands[0].Pred.SD = 2
	if got := (Diversity{}).Select(cands, nil); got != 0 {
		t.Fatalf("marginal fallback picked %d, want 0", got)
	}
}

func TestQBCFallsBackWithoutModel(t *testing.T) {
	cands := mkCands(
		gp.Prediction{Mean: 0, SD: 0.2},
		gp.Prediction{Mean: 0, SD: 0.9},
	)
	if got := (QBC{}).Select(cands, nil); got != 1 {
		t.Fatalf("QBC marginal fallback picked %d, want 1", got)
	}
	if got := (QBC{}).SelectWithModel(nil, cands, rand.New(rand.NewSource(1))); got != 1 {
		t.Fatalf("QBC nil-model path picked %d, want 1", got)
	}
}

func TestEMCMGradientCostAware(t *testing.T) {
	// Same σ and ‖x‖: the γ-weighted variant must avoid the expensive
	// (high predicted mean) candidate, the γ=0 one is indifferent to it.
	cands := []Candidate{
		{Row: 0, X: []float64{1}, Pred: gp.Prediction{Mean: 3, SD: 0.6}},
		{Row: 1, X: []float64{1}, Pred: gp.Prediction{Mean: 0, SD: 0.5}},
	}
	if got := (EMCMGradient{Gamma: 1}).Select(cands, nil); got != 1 {
		t.Fatalf("cost-aware picked %d, want 1", got)
	}
	if got := (EMCMGradient{}).Select(cands, nil); got != 0 {
		t.Fatalf("cost-blind picked %d, want 0", got)
	}
}
