package al

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/mat"
)

func TestRunEMCMValidation(t *testing.T) {
	d := synthDS(t, 30, 0.05, 40)
	p := synthPartition(t, d, 41)
	if _, err := RunEMCM(d, p, EMCMConfig{}, nil); err == nil {
		t.Fatal("expected missing-response error")
	}
	bad := dataset.Partition{Initial: []int{0}}
	if _, err := RunEMCM(d, bad, EMCMConfig{Response: "y"}, nil); err == nil {
		t.Fatal("expected empty-active error")
	}
}

func TestRunEMCMLearnsLinearData(t *testing.T) {
	// Linear data is EMCM's home turf (OLS weak learners).
	rng := rand.New(rand.NewSource(42))
	d := dataset.New([]string{"x"}, []string{"y"})
	for i := 0; i < 50; i++ {
		x := float64(i) / 10
		d.AddRow([]float64{x}, []float64{2*x + 1 + 0.05*rng.NormFloat64()}, nil, 1)
	}
	p := synthPartition(t, d, 43)
	// Seed with a few points so the bootstrap ensemble is meaningful.
	p.Initial = append(p.Initial, p.Active[:3]...)
	p.Active = p.Active[3:]
	res, err := RunEMCM(d, p, EMCMConfig{Response: "y", Iterations: 15}, rand.New(rand.NewSource(44)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 15 {
		t.Fatalf("%d records", len(res.Records))
	}
	last := res.Records[len(res.Records)-1]
	if last.RMSE > 0.1 {
		t.Fatalf("EMCM final RMSE %g on linear data", last.RMSE)
	}
	// No revisiting: all selected rows distinct.
	seen := map[int]bool{}
	for _, r := range res.Records {
		if seen[r.Row] {
			t.Fatalf("EMCM revisited row %d", r.Row)
		}
		seen[r.Row] = true
	}
	if res.Strategy != "emcm" {
		t.Fatalf("strategy name %q", res.Strategy)
	}
}

func TestRunEMCMStopsAtPoolExhaustion(t *testing.T) {
	d := synthDS(t, 20, 0.05, 45)
	p := synthPartition(t, d, 46)
	res, err := RunEMCM(d, p, EMCMConfig{Response: "y"}, rand.New(rand.NewSource(47)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(p.Active) {
		t.Fatalf("%d records for %d pool points", len(res.Records), len(p.Active))
	}
}

func TestRunOnlineWithOracle(t *testing.T) {
	// Candidate grid over [0, 4]; oracle is the true function plus noise.
	rng := rand.New(rand.NewSource(50))
	grid := mat.New(30, 1)
	for i := 0; i < 30; i++ {
		grid.Set(i, 0, 4*float64(i)/29)
	}
	calls := 0
	oracle := OracleFunc(func(x []float64) (float64, float64, error) {
		calls++
		y := math.Sin(2*x[0]) + 0.5*x[0] + 0.02*rng.NormFloat64()
		return y, math.Pow(10, y), nil
	})
	cfg := quickLoop(VarianceReduction{}, 12)
	res, err := RunOnline(grid, []int{15}, oracle, cfg, rand.New(rand.NewSource(51)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 12 {
		t.Fatalf("%d records", len(res.Records))
	}
	if calls != 13 { // 1 seed + 12 iterations
		t.Fatalf("oracle called %d times, want 13", calls)
	}
	// The final model must predict the true function decently.
	var worst float64
	for x := 0.2; x < 4; x += 0.3 {
		p := res.Final.Predict([]float64{x})
		if e := math.Abs(p.Mean - (math.Sin(2*x) + 0.5*x)); e > worst {
			worst = e
		}
	}
	if worst > 0.35 {
		t.Fatalf("online model max error %g", worst)
	}
	// AMSD should have dropped substantially from start to end.
	if !(res.Records[len(res.Records)-1].AMSD < res.Records[0].AMSD) {
		t.Fatal("online AMSD did not decrease")
	}
}

func TestRunOnlineValidation(t *testing.T) {
	grid := mat.New(5, 1)
	ora := OracleFunc(func(x []float64) (float64, float64, error) { return 0, 0, nil })
	cfg := quickLoop(VarianceReduction{}, 2)
	if _, err := RunOnline(grid, []int{0}, nil, cfg, nil); err == nil {
		t.Fatal("expected missing-oracle error")
	}
	if _, err := RunOnline(mat.New(0, 1), []int{0}, ora, cfg, nil); err == nil {
		t.Fatal("expected empty-grid error")
	}
	if _, err := RunOnline(grid, nil, ora, cfg, nil); err == nil {
		t.Fatal("expected missing-seed error")
	}
	if _, err := RunOnline(grid, []int{99}, ora, cfg, nil); err == nil {
		t.Fatal("expected out-of-range seed error")
	}
}

func TestRunOnlineOracleErrorPropagates(t *testing.T) {
	grid := mat.New(5, 1)
	for i := 0; i < 5; i++ {
		grid.Set(i, 0, float64(i))
	}
	boom := errors.New("boom")
	ora := OracleFunc(func(x []float64) (float64, float64, error) { return 0, 0, boom })
	cfg := quickLoop(VarianceReduction{}, 2)
	if _, err := RunOnline(grid, []int{0}, ora, cfg, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestBatchSelectDiversifies(t *testing.T) {
	// Train a GP on a few points, then ask for 2 picks from candidates
	// clustered at two far-apart locations. Naive top-2-by-SD would take
	// both from the farther cluster; kriging believer must split.
	x := mat.NewFromRows([][]float64{{0}, {1}, {2}})
	y := []float64{0, 1, 0}
	g, err := gp.Fit(gp.Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1}, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands := []Candidate{
		{Row: 0, X: []float64{10.0}},
		{Row: 1, X: []float64{10.01}},
		{Row: 2, X: []float64{-10.0}},
		{Row: 3, X: []float64{-10.01}},
	}
	for i := range cands {
		cands[i].Pred = g.Predict(cands[i].X)
	}
	picks, err := BatchSelect(g, cands, 2, VarianceReduction{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) != 2 {
		t.Fatalf("%d picks", len(picks))
	}
	side := func(row int) int {
		if row <= 1 {
			return 1
		}
		return -1
	}
	if side(picks[0]) == side(picks[1]) {
		t.Fatalf("believer picked both from one cluster: %v", picks)
	}
}

func TestBatchSelectValidation(t *testing.T) {
	if _, err := BatchSelect(nil, nil, 1, VarianceReduction{}, nil); err == nil {
		t.Fatal("expected nil-model error")
	}
	x := mat.NewFromRows([][]float64{{0}})
	g, _ := gp.Fit(gp.Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1}, x, []float64{0}, nil)
	cands := []Candidate{{Row: 0, X: []float64{1}}}
	if _, err := BatchSelect(g, cands, 5, VarianceReduction{}, nil); err == nil {
		t.Fatal("expected k-too-large error")
	}
}

func TestGPAugmentedReducesVarianceLocally(t *testing.T) {
	x := mat.NewFromRows([][]float64{{0}, {2}})
	y := []float64{0, 1}
	g, err := gp.Fit(gp.Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1}, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Predict([]float64{5}).SD
	g2, err := g.Augmented([]float64{5}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	after := g2.Predict([]float64{5}).SD
	if after >= before {
		t.Fatalf("augmentation did not reduce local SD: %g -> %g", before, after)
	}
	if g2.NumTrain() != 3 {
		t.Fatalf("NumTrain = %d", g2.NumTrain())
	}
	// TrainY round trip.
	ty := g2.TrainY()
	if len(ty) != 3 || math.Abs(ty[2]-0.5) > 1e-12 {
		t.Fatalf("TrainY = %v", ty)
	}
}
