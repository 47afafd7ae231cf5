package al

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/mat"
)

// fitTestGP builds a small fitted GP over a 1-D grid for scorer tests.
func fitTestGP(t *testing.T, n int) *gp.GP {
	t.Helper()
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := 4 * float64(i) / float64(n-1)
		xs[i] = []float64{x}
		ys[i] = x * x
	}
	model, err := gp.Fit(gp.Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1, FixedNoise: true},
		mat.NewFromRows(xs), ys, nil)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// bigGrid returns m 1-D query points.
func bigGrid(m int) *mat.Dense {
	g := mat.New(m, 1)
	for i := 0; i < m; i++ {
		g.Set(i, 0, 5*float64(i)/float64(m))
	}
	return g
}

// TestScorePoolMatchesSerial: the worker-pool scorer must be bitwise
// identical to a single PredictBatch call — each prediction depends only
// on its own row, so chunking cannot change any float.
func TestScorePoolMatchesSerial(t *testing.T) {
	model := fitTestGP(t, 12)
	grid := bigGrid(137) // odd size: exercises a ragged final chunk
	want := model.PredictBatch(grid)
	for _, workers := range []int{1, 2, 3, 4, 8, 137, 200} {
		got := scorePool(denseRegressor{model}, grid, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d predictions, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: prediction %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestScoreBatchBitIdentical scores a 3246-row, 3-D grid — the size of
// the Performance grid — through ScoreBatch with worker counts whose
// chunk sizes and final chunks are not multiples of PredictBatch's
// four-row blocks, and requires every mean and SD to equal the serial
// result bit for bit.
func TestScoreBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, m = 17, 3246
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{3 * rng.Float64(), 3 * rng.Float64(), 3 * rng.Float64()}
		ys[i] = xs[i][0]*xs[i][1] - xs[i][2]
	}
	model, err := gp.Fit(gp.Config{Kernel: kernel.NewRBF(1.1, 1), NoiseInit: 0.1, FixedNoise: true, Normalize: true},
		mat.NewFromRows(xs), ys, nil)
	if err != nil {
		t.Fatal(err)
	}
	grid := mat.New(m, 3)
	for i := range grid.Raw() {
		grid.Raw()[i] = 3 * rng.Float64()
	}
	want := model.PredictBatch(grid)
	for _, workers := range []int{1, 2, 3, 5, 7} {
		got := ScoreBatch(denseRegressor{model}, grid, workers)
		if len(got) != m {
			t.Fatalf("workers=%d: %d predictions, want %d", workers, len(got), m)
		}
		for i, w := range want {
			if math.Float64bits(got[i].Mean) != math.Float64bits(w.Mean) || math.Float64bits(got[i].SD) != math.Float64bits(w.SD) {
				t.Fatalf("workers=%d: prediction %d = %+v, want %+v", workers, i, got[i], w)
			}
		}
	}
}

// TestScorePoolConcurrentModels: one fitted GP backing many concurrent
// scorePool calls — the scorer's documented read-only contract, and the
// surface the race detector checks.
func TestScorePoolConcurrentModels(t *testing.T) {
	model := fitTestGP(t, 10)
	grid := bigGrid(96)
	want := model.PredictBatch(grid)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := scorePool(denseRegressor{model}, grid, 4)
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("concurrent scorePool diverged at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestResolveScoreWorkers pins the ScoreWorkers semantics: explicit
// values win, 0 defers to the process default.
func TestResolveScoreWorkers(t *testing.T) {
	defer SetDefaultScoreWorkers(0)
	if got := resolveScoreWorkers(3); got != 3 {
		t.Fatalf("explicit 3 resolved to %d", got)
	}
	SetDefaultScoreWorkers(1)
	if got := resolveScoreWorkers(0); got != 1 {
		t.Fatalf("default 1 resolved to %d", got)
	}
	SetDefaultScoreWorkers(0)
	if got := resolveScoreWorkers(0); got < 1 {
		t.Fatalf("GOMAXPROCS default resolved to %d", got)
	}
}

// TestSerialParallelTracesIdentical runs every strategy through the full
// AL loop twice — serial scorer vs worker pool — with identical seeds and
// asserts the selection traces and monitoring records match exactly. This
// is the determinism contract that lets the parallel scorer be the
// default.
func TestSerialParallelTracesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("serial/parallel trace equivalence skipped in -short mode")
	}
	ds := synthDS(t, 60, 0.05, 9)
	part := synthPartition(t, ds, 9)
	strategies := []Strategy{
		VarianceReduction{},
		CostEfficiency{},
		CostExponent{Gamma: 0.5},
		EpsilonGreedy{Base: VarianceReduction{}, Eps: 0.3},
		Random{},
		ThompsonVariance{},
	}
	for _, s := range strategies {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			runWith := func(workers int) Result {
				cfg := quickLoop(s, 8)
				cfg.ScoreWorkers = workers
				res, err := Run(ds, part, cfg, rand.New(rand.NewSource(21)))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial := runWith(1)
			parallel := runWith(8)
			if len(serial.TrainRows) != len(parallel.TrainRows) {
				t.Fatalf("trace lengths differ: %d vs %d", len(serial.TrainRows), len(parallel.TrainRows))
			}
			for i := range serial.TrainRows {
				if serial.TrainRows[i] != parallel.TrainRows[i] {
					t.Fatalf("selection traces diverge at step %d: %d vs %d",
						i, serial.TrainRows[i], parallel.TrainRows[i])
				}
			}
			for i := range serial.Records {
				a, b := serial.Records[i], parallel.Records[i]
				if a != b {
					t.Fatalf("iteration records diverge at step %d:\nserial:   %+v\nparallel: %+v", i, a, b)
				}
			}
		})
	}
}

// TestEMCMSerialParallelTracesIdentical covers the EMCM scorer fan-out
// with the same serial-equivalence contract.
func TestEMCMSerialParallelTracesIdentical(t *testing.T) {
	ds := synthDS(t, 60, 0.05, 9)
	part := synthPartition(t, ds, 9)
	runWith := func(workers int) Result {
		SetDefaultScoreWorkers(workers)
		defer SetDefaultScoreWorkers(0)
		res, err := RunEMCM(ds, part, EMCMConfig{Response: "y", Iterations: 6}, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := runWith(1)
	parallel := runWith(8)
	for i := range serial.Records {
		if serial.Records[i] != parallel.Records[i] {
			t.Fatalf("EMCM records diverge at step %d", i)
		}
	}
}

// TestPredictBatchRowPurity pins the Regressor contract the scorer
// rests on: row i of PredictBatch depends only on the bits of row i and
// the model. One point sits at every lane offset of a four-row block
// and last in a ragged final block of one, two and three rows; every
// copy must equal Predict at that point in Float64bits, on the dense,
// sparse and auto tiers. So must every row of a whole pool of 39 points,
// which is what lets BatchSelect rescore its believer rounds with one
// PredictBatch.
func TestPredictBatchRowPurity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 24
	x := mat.New(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		r := x.RawRow(i)
		for j := range r {
			r[j] = 3 * rng.Float64()
		}
		y[i] = math.Sin(r[0]) + r[1]*r[2]
	}
	p := []float64{1.3, 0.7, 2.1}
	filler := func() []float64 { return []float64{3 * rng.Float64(), 3 * rng.Float64(), 3 * rng.Float64()} }
	for _, tier := range []struct {
		name      string
		cfg       LoopConfig
		wantDense bool
	}{
		{"dense", LoopConfig{Model: ModelDense}, true},
		{"sparse", LoopConfig{Model: ModelSparse, ModelOptions: ModelOptions{Inducing: 8}}, false},
		{"auto", LoopConfig{Model: ModelAuto, ModelOptions: ModelOptions{Inducing: 8, Crossover: 4, ContestCap: 8}}, false},
	} {
		gcfg := gp.Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 0.1, Optimize: true, Restarts: 1}
		model, _, err := newModelFitter(tier.cfg).refit(context.Background(), gcfg, x, y, nil, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: %v", tier.name, err)
		}
		if _, dense := UnwrapGP(model); dense != tier.wantDense {
			t.Fatalf("%s: resolved dense = %v, want %v", tier.name, dense, tier.wantDense)
		}
		pool := mat.New(39, 3)
		for i := 0; i < pool.Rows(); i++ {
			copy(pool.RawRow(i), filler())
		}
		for i, got := range model.PredictBatch(pool) {
			want := model.Predict(pool.RawRow(i))
			if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) || math.Float64bits(got.SD) != math.Float64bits(want.SD) {
				t.Fatalf("%s, pool row %d = %+v, Predict = %+v", tier.name, i, got, want)
			}
		}
		want := model.Predict(p)
		for tail := 1; tail <= 3; tail++ {
			var rows [][]float64
			for lane := 0; lane < 4; lane++ {
				for r := 0; r < 4; r++ {
					if r == lane {
						rows = append(rows, p)
					} else {
						rows = append(rows, filler())
					}
				}
			}
			for r := 1; r < tail; r++ {
				rows = append(rows, filler())
			}
			rows = append(rows, p)
			preds := model.PredictBatch(mat.NewFromRows(rows))
			for i, row := range rows {
				if &row[0] != &p[0] {
					continue
				}
				got := preds[i]
				if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) || math.Float64bits(got.SD) != math.Float64bits(want.SD) {
					t.Fatalf("%s, batch of %d: row %d = %+v, Predict = %+v", tier.name, len(rows), i, got, want)
				}
			}
		}
	}
}

// TestPointIndex: rows holding the same bits share a point, numbered
// from its first row; +0 and -0 differ in their bits and stay apart.
func TestPointIndex(t *testing.T) {
	g := mat.NewFromRows([][]float64{{1, 2}, {0, 0}, {1, 2}, {math.Copysign(0, -1), 0}, {0, 0}, {2, 1}})
	idx := newPointIndex(g)
	wantOf := []int32{0, 1, 0, 2, 1, 3}
	wantFirst := []int{0, 1, 3, 5}
	for r, k := range idx.pointOf {
		if k != wantOf[r] {
			t.Fatalf("pointOf = %v, want %v", idx.pointOf, wantOf)
		}
	}
	if fmt.Sprint(idx.firstRow) != fmt.Sprint(wantFirst) {
		t.Fatalf("firstRow = %v, want %v", idx.firstRow, wantFirst)
	}
}

// TestPointIndexAllocs bounds the allocations of indexing a grid the
// size of the Performance grid, 3246 rows holding 990 points: a
// constant number, none per point.
func TestPointIndexAllocs(t *testing.T) {
	g := mat.New(3246, 3)
	for r := 0; r < g.Rows(); r++ {
		p := r % 990
		g.Set(r, 0, math.Log10(float64(1+p%11)))
		g.Set(r, 1, float64(p/11%9))
		g.Set(r, 2, 1.2+0.1*float64(p/99))
	}
	if got := len(newPointIndex(g).firstRow); got != 990 {
		t.Fatalf("indexed %d points, want 990", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { newPointIndex(g) }); allocs > 5 {
		t.Fatalf("newPointIndex allocated %v times, want at most 5", allocs)
	}
}

// TestShareGrid: grids with the same bits share one matrix and one
// point index while any holder is left, +0 and -0 stay apart, and the
// entry leaves the table with its last reference.
func TestShareGrid(t *testing.T) {
	rows := [][]float64{{1, 2}, {0, 0}, {1, 2}, {0.5, 3}}
	a := ShareGrid(mat.NewFromRows(rows))
	b := ShareGrid(mat.NewFromRows(rows))
	if a != b {
		t.Fatal("two grids with the same bits were not shared")
	}
	if a.index() != b.index() {
		t.Fatal("a shared grid was indexed twice")
	}
	rows[1][0] = math.Copysign(0, -1)
	neg := ShareGrid(mat.NewFromRows(rows))
	if neg == a {
		t.Fatal("-0 shared a grid holding +0")
	}
	neg.Release()
	a.Release()
	rows[1][0] = 0
	if c := ShareGrid(mat.NewFromRows(rows)); c != a {
		t.Fatal("the grid left the table while a holder was left")
	}
	a.Release()
	b.Release()
	c := ShareGrid(mat.NewFromRows(rows))
	defer c.Release()
	if c == a {
		t.Fatal("the grid stayed in the table after its last release")
	}
}

// TestShareGridConcurrent shares, indexes and releases one grid from
// several goroutines at once (run it under -race); every holder sees
// one grid and one index.
func TestShareGridConcurrent(t *testing.T) {
	rows := [][]float64{{7, 1}, {7, 2}, {7, 1}}
	first := ShareGrid(mat.NewFromRows(rows))
	defer first.Release()
	const holders = 8
	got := make([]*Grid, holders)
	idx := make([]*pointIndex, holders)
	var wg sync.WaitGroup
	for i := 0; i < holders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = ShareGrid(mat.NewFromRows(rows))
			idx[i] = got[i].index()
			got[i].Release()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != first || idx[i] != idx[0] {
			t.Fatalf("holder %d got its own grid or index", i)
		}
	}
}
