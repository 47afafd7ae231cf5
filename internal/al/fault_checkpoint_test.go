package al

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/mat"
	"repro/internal/obs"
)

// sameRecords asserts bit-identical iteration records (NaN == NaN by
// bit pattern), the currency of the checkpoint-determinism guarantee.
func sameRecords(t *testing.T, got, want []IterationRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	bits := math.Float64bits
	for i := range got {
		g, w := got[i], want[i]
		if g.Iter != w.Iter || g.Row != w.Row || g.Train != w.Train ||
			bits(g.SDChosen) != bits(w.SDChosen) || bits(g.AMSD) != bits(w.AMSD) ||
			bits(g.RMSE) != bits(w.RMSE) || bits(g.Coverage) != bits(w.Coverage) ||
			bits(g.CumCost) != bits(w.CumCost) || bits(g.LML) != bits(w.LML) ||
			bits(g.Noise) != bits(w.Noise) {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// With a nil rng the loop's counting RNG must reproduce the historical
// default stream exactly: same records as an explicit
// rand.New(rand.NewSource(1)).
func TestNilRngMatchesHistoricalDefault(t *testing.T) {
	ds := synthDS(t, 30, 0.05, 3)
	part := synthPartition(t, ds, 4)
	cfg := quickLoop(EpsilonGreedy{Base: VarianceReduction{}, Eps: 0.3}, 6)

	a, err := Run(ds, part, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ds, part, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, b.Records, a.Records)
}

// The acceptance criterion for checkpoint/resume: interrupting the loop
// at several distinct iterations and resuming must reproduce the
// uninterrupted run's selection sequence and records bit for bit — with
// fault injection, retries, the observation guard, and an rng-consuming
// strategy all active.
func TestCheckpointResumeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint cut-point sweep skipped in -short mode")
	}
	ds := synthDS(t, 40, 0.05, 3)
	part := synthPartition(t, ds, 4)
	dir := t.TempDir()

	base := LoopConfig{
		Response:        "y",
		Strategy:        EpsilonGreedy{Base: VarianceReduction{}, Eps: 0.25},
		Iterations:      12,
		NoiseFloor:      1e-2,
		Restarts:        1,
		ReoptimizeEvery: 3, // exercises the incremental-update chain in the rebuild
		AllowRevisit:    true,
		Seed:            11,
		RetryBudget:     2,
		GuardSigma:      4,
		Faults:          faults.New(faults.Config{Seed: 5, JobFailRate: 0.1, CorruptRate: 0.1}),
	}

	ref := base
	ref.CheckpointPath = filepath.Join(dir, "ref.json")
	full, err := Run(ds, part, ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Records) == 0 {
		t.Fatal("reference run produced no records")
	}

	for _, cut := range []int{3, 6, 9} {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.json", cut))
		interrupted := base
		interrupted.CheckpointPath = path
		interrupted.Iterations = cut
		if _, err := Run(ds, part, interrupted, nil); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}

		cont := base
		cont.CheckpointPath = path
		res, err := Resume(ds, part, cont, path)
		if err != nil {
			t.Fatalf("resume at %d: %v", cut, err)
		}
		sameRecords(t, res.Records, full.Records)
		if len(res.TrainRows) != len(full.TrainRows) {
			t.Fatalf("resume at %d: %d train rows, want %d", cut, len(res.TrainRows), len(full.TrainRows))
		}
		for i := range res.TrainRows {
			if res.TrainRows[i] != full.TrainRows[i] {
				t.Fatalf("resume at %d: train row %d is %d, want %d", cut, i, res.TrainRows[i], full.TrainRows[i])
			}
		}
	}
}

// Under a composite fault injector the loop must finish without error,
// produce finite records, and surface its recovery work in the
// counters.
func TestRunSurvivesInjectedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection sweep skipped in -short mode")
	}
	retriesBefore := obs.C("al.retries").Value()
	rejectedBefore := obs.C("al.rejected").Value()

	ds := synthDS(t, 60, 0.05, 7)
	part := synthPartition(t, ds, 8)
	cfg := quickLoop(VarianceReduction{}, 15)
	cfg.Faults = faults.New(faults.Config{
		Seed: 9, JobFailRate: 0.15, NodeFailRate: 0.05, CorruptRate: 0.2, StragglerRate: 0.1,
	})
	cfg.GuardSigma = 4
	res, err := Run(ds, part, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records under faults")
	}
	for _, r := range res.Records {
		if math.IsNaN(r.RMSE) || math.IsInf(r.RMSE, 0) || math.IsNaN(r.Noise) {
			t.Fatalf("non-finite record under faults: %+v", r)
		}
	}
	recovered := (obs.C("al.retries").Value() - retriesBefore) +
		(obs.C("al.rejected").Value() - rejectedBefore)
	if recovered == 0 {
		t.Fatal("injector active but no retries or rejections recorded")
	}
}

// runWith drives Run's dataset session with a custom experiment in
// place of the dataset lookup.
func runWith(ds *dataset.Dataset, part dataset.Partition, cfg LoopConfig, measure func(row int, x []float64, attempt int) (float64, float64, error)) (Result, error) {
	s, err := newRunSession(ds, part, cfg, nil)
	if err != nil {
		return Result{}, err
	}
	return s.drive(measure)
}

// A candidate whose measurement keeps failing is skipped: dropped from
// the pool, never entering the training set, with the iteration leaving
// no record.
func TestExhaustedRetryBudgetSkipsCandidate(t *testing.T) {
	skippedBefore := obs.C("al.skipped").Value()

	ds := synthDS(t, 30, 0.05, 3)
	part := synthPartition(t, ds, 4)
	cfg := quickLoop(VarianceReduction{}, 5)
	failRow := -1
	measure := func(row int, x []float64, attempt int) (float64, float64, error) {
		if failRow == -1 {
			failRow = row // doom whichever candidate is selected first
		}
		if row == failRow {
			return 0, 0, errors.New("node is on fire")
		}
		return ds.RespAt("y", row), ds.CostAt(row), nil
	}
	cfg.RetryBudget = 1
	res, err := runWith(ds, part, cfg, measure)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.TrainRows {
		if row == failRow {
			t.Fatalf("skipped row %d entered the training set", failRow)
		}
	}
	if len(res.Records) != 4 {
		t.Fatalf("%d records for 5 iterations with 1 skip, want 4", len(res.Records))
	}
	if d := obs.C("al.skipped").Value() - skippedBefore; d != 1 {
		t.Fatalf("al.skipped rose by %d, want 1", d)
	}
}

// A non-finite measurement is rejected before conditioning even with
// the distance guard off, and the retry produces a clean observation.
func TestNonFiniteObservationRejectedThenRetried(t *testing.T) {
	rejectedBefore := obs.C("al.rejected").Value()

	ds := synthDS(t, 30, 0.05, 3)
	part := synthPartition(t, ds, 4)
	cfg := quickLoop(VarianceReduction{}, 4)
	measure := func(row int, x []float64, attempt int) (float64, float64, error) {
		if attempt == 0 {
			return math.NaN(), 0, nil // first reading of every row is garbage
		}
		return ds.RespAt("y", row), ds.CostAt(row), nil
	}
	res, err := runWith(ds, part, cfg, measure)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("%d records, want 4", len(res.Records))
	}
	for _, r := range res.Records {
		if math.IsNaN(r.RMSE) || math.IsNaN(r.Noise) {
			t.Fatalf("NaN leaked into the model: %+v", r)
		}
	}
	if d := obs.C("al.rejected").Value() - rejectedBefore; d < 1 {
		t.Fatalf("al.rejected rose by %d, want >= 1", d)
	}
}

// The gross-outlier guard keeps a wildly scaled reading out of the
// training set; the retried attempt's clean value gets in.
func TestGuardRejectsGrossOutlier(t *testing.T) {
	rejectedBefore := obs.C("al.rejected").Value()

	ds := synthDS(t, 30, 0.05, 3)
	part := synthPartition(t, ds, 4)
	cfg := quickLoop(VarianceReduction{}, 4)
	cfg.GuardSigma = 3
	measure := func(row int, x []float64, attempt int) (float64, float64, error) {
		y := ds.RespAt("y", row)
		if attempt == 0 {
			return y + 1000, 0, nil // gross, finite outlier
		}
		return y, ds.CostAt(row), nil
	}
	res, err := runWith(ds, part, cfg, measure)
	if err != nil {
		t.Fatal(err)
	}
	// Were an outlier admitted, RMSE would explode; with the guard the
	// run tracks the clean response.
	last := res.Records[len(res.Records)-1]
	if last.RMSE > 10 {
		t.Fatalf("final RMSE %g suggests an admitted outlier", last.RMSE)
	}
	if d := obs.C("al.rejected").Value() - rejectedBefore; d < 1 {
		t.Fatalf("al.rejected rose by %d, want >= 1", d)
	}
}

// Checkpoint JSON survives NaN fields (RMSE/Coverage with no Test set)
// and round-trips float64 payloads bit-exactly.
func TestCheckpointNaNRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	ck := &Checkpoint{
		Version: CheckpointVersion, Strategy: "variance-reduction", Response: "y",
		Seed: 3, Draws: 17, NextIter: 5,
		Train: []int{1, 2, 3}, TrainY: []float64{0.1, math.Pi, -2.5e-17}, Pool: []int{4, 5},
		RefitHyper: []float64{0.123456789012345678, -3.25}, RefitLogSN: math.Log(0.07), RefitN: 2,
		HasPending: true, PendingX: []float64{1.5}, PendingY: 42,
		Attempts: map[int]int{3: 2},
		Records: []JSONRecord{{
			Iter: 1, Row: 3, RMSE: JSONFloat(math.NaN()), Coverage: JSONFloat(math.Inf(1)),
			LML: JSONFloat(-12.75), Train: 3,
		}},
	}
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Draws != 17 || got.NextIter != 5 || got.RefitN != 2 || !got.HasPending {
		t.Fatalf("scalars lost: %+v", got)
	}
	for i, v := range ck.TrainY {
		if math.Float64bits(got.TrainY[i]) != math.Float64bits(v) {
			t.Fatalf("TrainY[%d] = %x, want %x", i, got.TrainY[i], v)
		}
	}
	for i, v := range ck.RefitHyper {
		if math.Float64bits(got.RefitHyper[i]) != math.Float64bits(v) {
			t.Fatalf("RefitHyper[%d] drifted", i)
		}
	}
	if !math.IsNaN(float64(got.Records[0].RMSE)) {
		t.Fatalf("NaN RMSE became %v", got.Records[0].RMSE)
	}
	if !math.IsInf(float64(got.Records[0].Coverage), 1) {
		t.Fatalf("+Inf Coverage became %v", got.Records[0].Coverage)
	}
	if got.Attempts[3] != 2 {
		t.Fatalf("attempts map lost: %+v", got.Attempts)
	}
}

// RunOnline retries oracle failures and skips candidates whose budget
// is exhausted instead of aborting the campaign.
func TestRunOnlineRetriesAndSkips(t *testing.T) {
	grid := mat.New(21, 1)
	for i := 0; i < 21; i++ {
		grid.Set(i, 0, 4*float64(i)/20)
	}
	calls := map[string]int{}
	ora := OracleFunc(func(x []float64) (float64, float64, error) {
		k := fmt.Sprintf("%.4f", x[0])
		calls[k]++
		if calls[k] == 1 {
			return 0, 0, errors.New("transient failure") // first touch of every point fails
		}
		return math.Sin(2*x[0]) + 0.5*x[0], 1, nil
	})
	cfg := quickLoop(VarianceReduction{}, 5)
	cfg.RetryBudget = 2
	res, err := RunOnline(grid, []int{0, 10, 20}, ora, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 5 {
		t.Fatalf("%d records, want 5", len(res.Records))
	}
	for _, r := range res.Records {
		if math.IsNaN(r.Noise) || math.IsNaN(r.AMSD) {
			t.Fatalf("non-finite record: %+v", r)
		}
	}
}
