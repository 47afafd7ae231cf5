package al

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
)

// goldenTrace is everything a RunOnline realization decides: which rows
// it measured, the monitoring quantities of every record (as raw float
// bits), how often it called the oracle, and the final model identity.
// The literals below were recorded once and must never be re-recorded
// to make a refactor pass: a refactored loop reproduces them bit for bit
// or it changed behavior.
type goldenTrace struct {
	calls     int
	rows      []int       // Result.TrainRows
	iters     []int       // IterationRecord.Iter (gaps are skipped iterations)
	bits      [][4]uint64 // AMSD, SDChosen, LML, Noise per record
	converged bool
	fp        uint64 // Final.Fingerprint()
}

// goldenGrid is an n-point 1-D candidate grid over [0, 4].
func goldenGrid(n int) *mat.Dense {
	g := mat.New(n, 1)
	for i := 0; i < n; i++ {
		g.Set(i, 0, 4*float64(i)/float64(n-1))
	}
	return g
}

// goldenTruth is the deterministic response the golden oracles measure:
// a smooth trend with a high-frequency ripple standing in for noise.
func goldenTruth(x []float64) (y, cost float64) {
	return math.Sin(2*x[0]) + 0.5*x[0] + 0.05*math.Sin(17*x[0]), 1 + x[0]
}

type goldenCase struct {
	name  string
	grid  *mat.Dense
	seeds []int
	cfg   LoopConfig
	// oracle builds a fresh (stateful) oracle for one run.
	oracle func() OracleFunc
	want   goldenTrace
}

func plainOracle() OracleFunc {
	return func(x []float64) (float64, float64, error) {
		y, c := goldenTruth(x)
		return y, c, nil
	}
}

// touchOracle fails each point's first touch; rows whose index on the
// 25-point grid is ≡ 1 or 2 (mod 4) fail their first three touches,
// exhausting the default retry budget so the candidate is skipped
// (seed 5 is dropped, and AL picks on those rows are skipped once).
func touchOracle() OracleFunc {
	touches := map[uint64]int{}
	return func(x []float64) (float64, float64, error) {
		k := math.Float64bits(x[0])
		touches[k]++
		fails := 1
		switch int(math.Round(x[0]*6)) % 4 {
		case 1, 2:
			fails = 3
		}
		if touches[k] <= fails {
			return 0, 0, errors.New("transient failure")
		}
		y, c := goldenTruth(x)
		return y, c, nil
	}
}

// outlierOracle returns a gross outlier on every fourth call past the
// seeds, which the guard must reject and retry.
func outlierOracle() OracleFunc {
	calls := 0
	return func(x []float64) (float64, float64, error) {
		calls++
		y, c := goldenTruth(x)
		if calls > 3 && calls%4 == 0 {
			y += 25
		}
		return y, c, nil
	}
}

func goldenCases() []goldenCase {
	base := func(iters int) LoopConfig {
		return LoopConfig{
			Response:     "y",
			Strategy:     VarianceReduction{},
			Iterations:   iters,
			NoiseFloor:   1e-2,
			Restarts:     1,
			AllowRevisit: true,
		}
	}
	sparse := base(8)
	sparse.Model = "sparse"
	sparse.ModelOptions = ModelOptions{Inducing: 8}
	incremental := base(9)
	incremental.ReoptimizeEvery = 3
	guard := base(8)
	guard.GuardSigma = 3
	guard.Strategy = EpsilonGreedy{Eps: 0.3}
	budget := base(20)
	budget.CostBudget = 12
	converge := base(0)
	converge.ConvergeWindow = 2
	converge.ConvergeTol = 0.2
	return []goldenCase{
		{name: "dense", grid: goldenGrid(25), seeds: []int{0, 24}, cfg: base(8), oracle: plainOracle, want: goldenDense},
		{name: "sparse", grid: goldenGrid(40), seeds: []int{0, 20, 39}, cfg: sparse, oracle: plainOracle, want: goldenSparse},
		{name: "incremental", grid: goldenGrid(25), seeds: []int{0, 24}, cfg: incremental, oracle: plainOracle, want: goldenIncremental},
		{name: "retry-skip", grid: goldenGrid(25), seeds: []int{0, 5, 24}, cfg: base(8), oracle: touchOracle, want: goldenRetrySkip},
		{name: "guard", grid: goldenGrid(25), seeds: []int{0, 12, 24}, cfg: guard, oracle: outlierOracle, want: goldenGuard},
		{name: "budget", grid: goldenGrid(25), seeds: []int{0, 24}, cfg: budget, oracle: plainOracle, want: goldenBudget},
		{name: "converge", grid: goldenGrid(25), seeds: []int{0, 24}, cfg: converge, oracle: plainOracle, want: goldenConverge},
	}
}

func runGolden(t *testing.T, gc goldenCase) goldenTrace {
	t.Helper()
	inner := gc.oracle()
	var got goldenTrace
	oracle := OracleFunc(func(x []float64) (float64, float64, error) {
		got.calls++
		return inner(x)
	})
	res, err := RunOnline(gc.grid, gc.seeds, oracle, gc.cfg, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatalf("%s: RunOnline: %v", gc.name, err)
	}
	got.rows = res.TrainRows
	for _, r := range res.Records {
		got.iters = append(got.iters, r.Iter)
		got.bits = append(got.bits, [4]uint64{
			math.Float64bits(r.AMSD), math.Float64bits(r.SDChosen),
			math.Float64bits(r.LML), math.Float64bits(r.Noise),
		})
	}
	got.converged = res.Converged
	got.fp = res.Final.Fingerprint()
	return got
}

// literal renders a trace as the Go literal pinned below.
func (g goldenTrace) literal() string {
	var b strings.Builder
	fmt.Fprintf(&b, "goldenTrace{\n\tcalls: %d,\n\trows: %#v,\n\titers: %#v,\n\tbits: [][4]uint64{\n", g.calls, g.rows, g.iters)
	for _, r := range g.bits {
		fmt.Fprintf(&b, "\t\t{%#016x, %#016x, %#016x, %#016x},\n", r[0], r[1], r[2], r[3])
	}
	fmt.Fprintf(&b, "\t},\n\tconverged: %v,\n\tfp: %#016x,\n}", g.converged, g.fp)
	return b.String()
}

// TestRunOnlineGoldenTraces pins RunOnline's selection traces across
// versions: dense and sparse tiers, incremental updates between refits,
// oracle retries and skips, the outlier guard, and both early stops.
func TestRunOnlineGoldenTraces(t *testing.T) {
	for _, gc := range goldenCases() {
		got := runGolden(t, gc)
		if g, w := got.literal(), gc.want.literal(); g != w {
			t.Errorf("%s: trace diverges from the pinned golden\n got: %s\nwant: %s", gc.name, g, w)
		}
	}
}

// Recorded golden traces (see goldenTrace).

// dense
var goldenDense = goldenTrace{
	calls: 10,
	rows:  []int{0, 12, 18, 4, 8, 22, 2, 15},
	iters: []int{1, 2, 3, 4, 5, 6, 7, 8},
	bits: [][4]uint64{
		{0x3fa074fcf6a97683, 0x3fa074fcf6cdb006, 0xc01137e45bd2c877, 0x4000a78569a7ac53},
		{0x3fe16d6de5f92df1, 0x3fec3aa31c3386c1, 0xbff08c1e13365eb9, 0x3f847ae147ae1478},
		{0x3fdcfdf0b1871e54, 0x3fe7a47e224e2487, 0xc003e01c37abe603, 0x3f847ae147ae1478},
		{0x3fa50901b38c6926, 0x3fbc07bf5ca5bdfa, 0xc00954f2ba97113d, 0x3f847ae147ae1478},
		{0x3fc2493096f580a8, 0x3fd420e372c43c30, 0xc014d59a8d79d79c, 0x3f847ae147ae1478},
		{0x3f9e36f822818a81, 0x3fb85c692d3f64dd, 0xc0121abbd221a2d6, 0x3f847ae147ae1478},
		{0x3f87e0fae841081f, 0x3f93523eab625b23, 0xc00903b8563ab822, 0x3f847ae147ae1478},
		{0x3f85026a3992e369, 0x3f8ef79574434b19, 0xbfcd04792d7fb980, 0x3f847ae147ae1478},
	},
	converged: false,
	fp:        0x2b8c0e64d7da65b9,
}

// sparse
var goldenSparse = goldenTrace{
	calls: 11,
	rows:  []int{0, 10, 30, 5, 35, 15, 25, 36},
	iters: []int{1, 2, 3, 4, 5, 6, 7, 8},
	bits: [][4]uint64{
		{0x3fe7b42b35e68ab6, 0x3fe86af7f3846221, 0xc0175a61468cd17a, 0x3ff6cd6e5648702d},
		{0x3fe414f5647ac8f2, 0x3ff0b3d40dbc92e6, 0xc00401e999b5382b, 0x3f847ae147ae1478},
		{0x3fe18a21f70d3ee0, 0x3ff4f810e31c53f3, 0xc010d39d169e2cef, 0x3f847ae147ae1478},
		{0x3fc154c767f31d82, 0x3fd05a3e2508bf73, 0xc014ea92678ec328, 0x3f847ae147ae1478},
		{0x3fa1565e6c0d74f5, 0x3fb86783deff7919, 0xc01316954ee841c3, 0x3f847ae147ae1478},
		{0x3f890879a80efb6e, 0x3f931156fcdf92c6, 0xc0098fcbd8269118, 0x3f847ae147ae1478},
		{0x3f93840f0d7b1515, 0x3fab9b9f66174842, 0xc0137e314610d78a, 0x3f847ae147ae1478},
		{0x3f92ee09339ad68b, 0x3fb3ac9ee72e6852, 0xbfff65a54c5e5e64, 0x3f847ae147ae1478},
	},
	converged: false,
	fp:        0xd44265a0e97a706c,
}

// incremental
var goldenIncremental = goldenTrace{
	calls: 11,
	rows:  []int{0, 24, 0, 12, 19, 5, 15, 8, 22},
	iters: []int{1, 2, 3, 4, 5, 6, 7, 8, 9},
	bits: [][4]uint64{
		{0x3fa074fcf6a97683, 0x3fa074fcf6cdb006, 0xc01137e45bd2c877, 0x4000a78569a7ac53},
		{0x3fa0747c6f002bd4, 0x3fa0747c6f6f31d9, 0xc017d3d61f320f14, 0x4000a78569a7ac53},
		{0x3fa073fbf319a146, 0x3fa073fbf3620fde, 0xc02137a5e5791e35, 0x4000a78569a7ac53},
		{0x3fccd92b94353157, 0x3fd6f7a0afb06163, 0x40149660829ff608, 0x3f847ae147ae1478},
		{0x3f9eb9efa1d2be01, 0x3fa7691df22ae479, 0xc000eda51bbc30fa, 0x3f847ae147ae1478},
		{0x3f88d5db6a5134ed, 0x3f95d8c93c743c23, 0xbfe9c73a98ed2ad0, 0x3f847ae147ae1478},
		{0x3fc763b64eb338d6, 0x3fd638dcbe38ecb6, 0x3ff5779e596dadb8, 0x3f847ae147ae1478},
		{0x3fb491f6278a7ee6, 0x3fc85bd086ab10f1, 0x3ff7997ce789bd78, 0x3f847ae147ae1478},
		{0x3fa12118a5d44f26, 0x3fbaee8a9917a0c5, 0x3ffbed7767e980f8, 0x3f847ae147ae1478},
	},
	converged: false,
	fp:        0x00fc9ba3b56df833,
}

// retry-skip
var goldenRetrySkip = goldenTrace{
	calls: 22,
	rows:  []int{0, 12, 18, 4, 8, 22},
	iters: []int{1, 2, 4, 5, 6, 8},
	bits: [][4]uint64{
		{0x3fa074fcf6a97683, 0x3fa074fcf6cdb006, 0xc01137e45bd2c877, 0x4000a78569a7ac53},
		{0x3fe16d6de5f92df1, 0x3fec3aa31c3386c1, 0xbff08c1e13365eb9, 0x3f847ae147ae1478},
		{0x3fdcfdf0b1871e54, 0x3fe7a47e224e2487, 0xc003e01c37abe603, 0x3f847ae147ae1478},
		{0x3fa50901b3666144, 0x3fbc07bf5c6f02d6, 0xc00954f2ba970d9b, 0x3f847ae147ae1478},
		{0x3fc24930972768b3, 0x3fd420e372ff735d, 0xc014d59a8d79cbde, 0x3f847ae147ae1478},
		{0x3f9e3ded794ace60, 0x3fb86284f26affad, 0xc0121abb596698b0, 0x3f847ae147ae1478},
	},
	converged: false,
	fp:        0xe0922f0cf4461e57,
}

// guard
var goldenGuard = goldenTrace{
	calls: 14,
	rows:  []int{6, 24, 9, 1, 2, 3, 18, 14},
	iters: []int{1, 2, 3, 4, 5, 6, 7, 8},
	bits: [][4]uint64{
		{0x3fde736cf8fd3bff, 0x3fe7f14a8d455f61, 0xc0174bdba317bd18, 0x3fb9cd851e3fe578},
		{0x3fe3a16def43ef26, 0x3fe77287fae61ee6, 0xc01d3bbafd577b57, 0x3ff1baa10c03f858},
		{0x3ff6429073624d0a, 0x3ffa78c64a18d1b6, 0xc011244eceb4dc38, 0x3f847ae147ae1478},
		{0x3ff3626445a28ae4, 0x3ff8315982a4fe90, 0xc01747feaed82607, 0x3f847ae147ae1478},
		{0x3ff0f00206e07114, 0x3ff63cf87632861e, 0xc01c9c3b0068546e, 0x3f847ae147ae1478},
		{0x3fee78bb27a63c57, 0x3ff519e9919f7615, 0xc0210f683110d20a, 0x3f847ae147ae1478},
		{0x3fe12a7fd88b4608, 0x3ff76d7b3e963aad, 0xc014649c7737e847, 0x3f847ae147ae1478},
		{0x3fd48cd8fe1e261f, 0x3fe8496c9bd552c2, 0xc01a9754074d6787, 0x3f847ae147ae1478},
	},
	converged: false,
	fp:        0xc7845f231988100e,
}

// budget
var goldenBudget = goldenTrace{
	calls: 5,
	rows:  []int{0, 12, 18},
	iters: []int{1, 2, 3},
	bits: [][4]uint64{
		{0x3fa074fcf6a97683, 0x3fa074fcf6cdb006, 0xc01137e45bd2c877, 0x4000a78569a7ac53},
		{0x3fe16d6de5f92df1, 0x3fec3aa31c3386c1, 0xbff08c1e13365eb9, 0x3f847ae147ae1478},
		{0x3fdcfdf0b1871e54, 0x3fe7a47e224e2487, 0xc003e01c37abe603, 0x3f847ae147ae1478},
	},
	converged: false,
	fp:        0x43c992bc9119d21d,
}

// converge
var goldenConverge = goldenTrace{
	calls: 11,
	rows:  []int{0, 12, 18, 4, 8, 22, 2, 15, 20},
	iters: []int{1, 2, 3, 4, 5, 6, 7, 8, 9},
	bits: [][4]uint64{
		{0x3fa074fcf6a97683, 0x3fa074fcf6cdb006, 0xc01137e45bd2c877, 0x4000a78569a7ac53},
		{0x3fe16d6de5f92df1, 0x3fec3aa31c3386c1, 0xbff08c1e13365eb9, 0x3f847ae147ae1478},
		{0x3fdcfdf0b1871e54, 0x3fe7a47e224e2487, 0xc003e01c37abe603, 0x3f847ae147ae1478},
		{0x3fa50901b38c6926, 0x3fbc07bf5ca5bdfa, 0xc00954f2ba97113d, 0x3f847ae147ae1478},
		{0x3fc2493096f580a8, 0x3fd420e372c43c30, 0xc014d59a8d79d79c, 0x3f847ae147ae1478},
		{0x3f9e36f822818a81, 0x3fb85c692d3f64dd, 0xc0121abbd221a2d6, 0x3f847ae147ae1478},
		{0x3f87e0fae841081f, 0x3f93523eab625b23, 0xc00903b8563ab822, 0x3f847ae147ae1478},
		{0x3f85026a3992e369, 0x3f8ef79574434b19, 0xbfcd04792d7fb980, 0x3f847ae147ae1478},
		{0x3f863644f282d33b, 0x3f9000706b902da5, 0xc001ca9aaa7aae24, 0x3f847ae147ae1478},
	},
	converged: true,
	fp:        0xe07feae695698335,
}

// Repeated-point grids. The paper's Performance grid repeats each
// configuration up to three times, so the scorer sees the same point in
// several rows. These cases pin RunOnline and Run on such grids; each
// runs with one, two and three scoring workers, and all three must
// reproduce the same literal.

// repeatGrid1D tiles the 25-point golden grid three times and shuffles
// the 75 rows under a fixed permutation, so the copies of a point land
// at different offsets mod 4 and on both sides of a scorer chunk
// boundary.
func repeatGrid1D() *mat.Dense {
	base := goldenGrid(25)
	perm := rand.New(rand.NewSource(9)).Perm(75)
	g := mat.New(75, 1)
	for i, p := range perm {
		g.Set(i, 0, base.At(p%25, 0))
	}
	return g
}

// repeatGrid3D is a 4×3×3 grid over [0, 3]×[0, 2]×[0, 2] whose k-th
// point appears 1 + k%3 times (72 rows), shuffled under a fixed
// permutation.
func repeatGrid3D() *mat.Dense {
	var rows [][]float64
	k := 0
	for a := 0; a < 4; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 3; c++ {
				for r := 0; r <= k%3; r++ {
					rows = append(rows, []float64{float64(a), float64(b), float64(c)})
				}
				k++
			}
		}
	}
	g := mat.New(len(rows), 3)
	for i, p := range rand.New(rand.NewSource(10)).Perm(len(rows)) {
		copy(g.RawRow(i), rows[p])
	}
	return g
}

// repeat3DOracle measures a smooth 3-D response.
func repeat3DOracle() OracleFunc {
	return func(x []float64) (float64, float64, error) {
		return math.Sin(1.5*x[0]) + 0.5*x[1] - 0.3*math.Cos(2*x[2]), 1 + x[0], nil
	}
}

// checkRepeatShape asserts that some point of g has copies at two
// different offsets mod 4 and, for each worker count, copies in two
// different scorer chunks — the placements a per-point scorer must
// handle.
func checkRepeatShape(t *testing.T, name string, g *mat.Dense, workers ...int) {
	t.Helper()
	copies := map[string][]int{}
	for i := 0; i < g.Rows(); i++ {
		k := fmt.Sprint(g.RawRow(i))
		copies[k] = append(copies[k], i)
	}
	spans := func(class func(row int) int) bool {
		for _, rows := range copies {
			for _, r := range rows[1:] {
				if class(r) != class(rows[0]) {
					return true
				}
			}
		}
		return false
	}
	if !spans(func(r int) int { return r % 4 }) {
		t.Fatalf("%s: no point repeats at two offsets mod 4", name)
	}
	for _, w := range workers {
		chunk := (g.Rows() + w - 1) / w
		if !spans(func(r int) int { return r / chunk }) {
			t.Fatalf("%s: no point repeats across a %d-worker chunk boundary", name, w)
		}
	}
}

func repeatedGoldenCases() []goldenCase {
	base := func(iters int) LoopConfig {
		return LoopConfig{
			Response:     "y",
			Strategy:     VarianceReduction{},
			Iterations:   iters,
			NoiseFloor:   1e-2,
			Restarts:     1,
			AllowRevisit: true,
		}
	}
	incremental := base(10)
	incremental.ReoptimizeEvery = 11
	sparse := base(8)
	sparse.Model = ModelSparse
	sparse.ModelOptions = ModelOptions{Inducing: 8}
	g1, g3 := repeatGrid1D(), repeatGrid3D()
	return []goldenCase{
		{name: "1d-dense", grid: g1, seeds: []int{0, 74}, cfg: base(10), oracle: plainOracle, want: goldenRepeat1DDense},
		{name: "1d-incremental", grid: g1, seeds: []int{0, 74}, cfg: incremental, oracle: plainOracle, want: goldenRepeat1DIncremental},
		{name: "1d-sparse", grid: g1, seeds: []int{0, 37, 74}, cfg: sparse, oracle: plainOracle, want: goldenRepeat1DSparse},
		{name: "3d-dense", grid: g3, seeds: []int{0, 71}, cfg: base(10), oracle: repeat3DOracle, want: goldenRepeat3DDense},
		{name: "3d-incremental", grid: g3, seeds: []int{0, 71}, cfg: incremental, oracle: repeat3DOracle, want: goldenRepeat3DIncremental},
		{name: "3d-sparse", grid: g3, seeds: []int{0, 35, 71}, cfg: sparse, oracle: repeat3DOracle, want: goldenRepeat3DSparse},
	}
}

// TestRunOnlineRepeatedGridGoldens pins RunOnline on grids with
// repeated points: dense refits every step, incremental updates
// between refits and the sparse tier, on a tiled 1-D grid and a 3-D
// grid, with one, two and three scoring workers.
func TestRunOnlineRepeatedGridGoldens(t *testing.T) {
	checkRepeatShape(t, "1d", repeatGrid1D(), 2, 3)
	checkRepeatShape(t, "3d", repeatGrid3D(), 2, 3)
	for _, gc := range repeatedGoldenCases() {
		for _, w := range []int{1, 2, 3} {
			gc := gc
			gc.cfg.ScoreWorkers = w
			got := runGolden(t, gc)
			if g, want := got.literal(), gc.want.literal(); g != want {
				t.Errorf("%s, %d workers: trace diverges from the pinned golden\n got: %s\nwant: %s", gc.name, w, g, want)
			}
		}
	}
}

// repeatDS is a 60-row dataset holding 20 points over [0, 4] three
// times each, with independent noise per copy, in shuffled order.
func repeatDS(t *testing.T) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	d := dataset.New([]string{"x"}, []string{"y"})
	for _, p := range rng.Perm(60) {
		x := 4 * float64(p%20) / 19
		y := math.Sin(2*x) + 0.5*x + 0.05*rng.NormFloat64()
		if err := d.AddRow([]float64{x}, []float64{y}, nil, math.Pow(10, y)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestRunRepeatedPoolGoldens pins Run over a dataset pool whose rows
// repeat points, with the pool shrinking as rows are measured, with
// one, two and three scoring workers.
func TestRunRepeatedPoolGoldens(t *testing.T) {
	ds := repeatDS(t)
	part, err := dataset.RandomPartition(ds, dataset.PartitionConfig{NInitial: 5, TestFrac: 0.2},
		rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	checkRepeatShape(t, "pool", ds.Matrix(part.Active), 2, 3)
	noRevisit := quickLoop(VarianceReduction{}, 12)
	noRevisit.AllowRevisit = false
	incremental := quickLoop(VarianceReduction{}, 12)
	incremental.ReoptimizeEvery = 13
	for _, gc := range []struct {
		name string
		cfg  LoopConfig
		want runGoldenTrace
	}{
		{"no-revisit", noRevisit, runGoldenRepeatNoRevisit},
		{"incremental", incremental, runGoldenRepeatIncremental},
	} {
		for _, w := range []int{1, 2, 3} {
			cfg := gc.cfg
			cfg.ScoreWorkers = w
			res, err := Run(ds, part, cfg, rand.New(rand.NewSource(41)))
			if err != nil {
				t.Fatalf("%s, %d workers: Run: %v", gc.name, w, err)
			}
			got := runGoldenOf(t, res, "")
			if g, want := got.literal(), gc.want.literal(); g != want {
				t.Errorf("%s, %d workers: trace diverges from the pinned golden\n got: %s\nwant: %s", gc.name, w, g, want)
			}
		}
	}
}

// Recorded repeated-point golden traces.

// 1d-dense
var goldenRepeat1DDense = goldenTrace{
	calls: 12,
	rows:  []int{52, 30, 32, 52, 32, 4, 1, 15, 21, 17},
	iters: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	bits: [][4]uint64{
		{0x3fd89f1ef69b54e3, 0x3fd89f4168b8b43d, 0xc008da0c2c96663b, 0x3fe1ef467ed4b653},
		{0x3fdf4f8342b18c37, 0x3fe353878508d957, 0xc0117e48faba5384, 0x3fe0140edcf3657d},
		{0x3fd0c184e0bde36a, 0x3fd7d1ff473563a8, 0xc01325a4eccc79de, 0x3fd7826a30a158c1},
		{0x3fd2e7a4a971f6b8, 0x3fd98fe91b99343c, 0xc01bfe7761516631, 0x3fddf095d17b28bd},
		{0x3fcd56b57a8ef805, 0x3fd1f2faaea241fa, 0xc01d5cb3b2e82285, 0x3fd8e60755c0137f},
		{0x3fca84a90d405b74, 0x3fcde1cb3d538a93, 0xc01fd4ec39065410, 0x3fd5f439fd997ee9},
		{0x3ff3a3ecb442f2c2, 0x3ff9cc04c2246300, 0xc012aa53714b7a8c, 0x3f847ae147ae1478},
		{0x3faceea44bd3901a, 0x3fced8d1a7fa4b02, 0x3ff4893a9f5c08d8, 0x3f847ae147ae1478},
		{0x3f8da287b0e46cba, 0x3f9f3e5788d20001, 0x3fe7d2c8a0d668e0, 0x3f847ae147ae1478},
		{0x3f88556b93587d87, 0x3f9c3a86c957055c, 0x3ff3c4bb2d952aa8, 0x3f847ae147ae1478},
	},
	converged: false,
	fp:        0x503ae6aa5022a811,
}

// 1d-incremental
var goldenRepeat1DIncremental = goldenTrace{
	calls: 12,
	rows:  []int{52, 52, 32, 52, 32, 52, 32, 52, 32, 52},
	iters: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	bits: [][4]uint64{
		{0x3fd89f1ef69b54e3, 0x3fd89f4168b8b43d, 0xc008da0c2c96663b, 0x3fe1ef467ed4b653},
		{0x3fd44ca6dce356ef, 0x3fd44cb88eb22452, 0xc0190698b53901b6, 0x3fe1ef467ed4b653},
		{0x3fd1aaa89e988ce6, 0x3fd1aac58453c7ea, 0xc0202a4b689de8f7, 0x3fe1ef467ed4b653},
		{0x3fcfb2832894c952, 0x3fcfb2ae7a53dad4, 0xc02cd6101181e554, 0x3fe1ef467ed4b653},
		{0x3fccfe50a2db4dde, 0x3fccfe8e692af692, 0xc030d3a020cdb305, 0x3fe1ef467ed4b653},
		{0x3fcae1922bf95cbb, 0x3fcae1c436b33a8e, 0xc0364f169b1fc510, 0x3fe1ef467ed4b653},
		{0x3fc92c0fa16c6bce, 0x3fc92c51b89fa8b7, 0xc03909b4a9720a93, 0x3fe1ef467ed4b653},
		{0x3fc7c09ef77d72e8, 0x3fc7c0d6f084ea45, 0xc03e18185ad5dcf0, 0x3fe1ef467ed4b653},
		{0x3fc68c78ab78f908, 0x3fc68cbf0801ea1c, 0xc04083084020aa5f, 0x3fe1ef467ed4b653},
		{0x3fc582df483063a4, 0x3fc5831c9e61c5b9, 0xc042e9915a308396, 0x3fe1ef467ed4b653},
	},
	converged: false,
	fp:        0xf6ecfeb0786fdd0e,
}

// 1d-sparse
var goldenRepeat1DSparse = goldenTrace{
	calls: 11,
	rows:  []int{52, 30, 9, 32, 11, 24, 17, 21},
	iters: []int{1, 2, 3, 4, 5, 6, 7, 8},
	bits: [][4]uint64{
		{0x3ff3717b6ed446c7, 0x3ffa5236f71889bc, 0x3fc52c082247b850, 0x3f847ae147ae1478},
		{0x3fe926d0fbdd1136, 0x3ff40be4fbe9657b, 0xbff0b670962fde06, 0x3f847ae147ae1478},
		{0x3fe2a2403779d042, 0x3ff099b49a3b8ea1, 0xc003815e4bae86a4, 0x3f847ae147ae1478},
		{0x3fd262929d59c088, 0x3feaee537077eacc, 0xc00e8ef3bd4a13db, 0x3f847ae147ae1478},
		{0x3fa450524e89f568, 0x3fbbb5e724679d5d, 0xc011296fc1a8b081, 0x3f847ae147ae1478},
		{0x3f8c4a962a3b386f, 0x3f9c9fd97e918f75, 0xc009919ab98825a0, 0x3f847ae147ae1478},
		{0x3f86ba4085aa634a, 0x3f93b862553f6271, 0xbff8f05a417e66d8, 0x3f847ae147ae1478},
		{0x3f85314e185a60bb, 0x3f8d678f71452a9c, 0x3fe7d02fa3b01b60, 0x3f85418250fe23a5},
	},
	converged: false,
	fp:        0x969fa1706e0cdc72,
}

// 3d-dense
var goldenRepeat3DDense = goldenTrace{
	calls: 12,
	rows:  []int{9, 42, 57, 1, 2, 3, 14, 7, 48, 22},
	iters: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	bits: [][4]uint64{
		{0x3febfbd75ff13096, 0x3ff318f516bbab9c, 0xc00973fc5f00a5fc, 0x3fb9a180b5ece84e},
		{0x3ff05e627e1ab962, 0x3ff3acb4af127544, 0xc013820977601012, 0x3f847ae147ae1478},
		{0x3fe8183bdd2cc179, 0x3ff123d67f2e6739, 0xc0184d968ac8a71d, 0x3f847ae147ae1478},
		{0x3fe8754579f7fcd5, 0x3ff00ec5dc2255db, 0xc01c9c3bf05d3987, 0x3f847ae763f4a463},
		{0x3fe38a772da67c13, 0x3feddb405fded9cc, 0xc020b10621404105, 0x3f847ae147ae1478},
		{0x3fdb3d161f11509b, 0x3fe7da4bba3f5e42, 0xc022e8be37ba10be, 0x3f847ae147ae1478},
		{0x3fe0ac6c8c23bb90, 0x3fe73daec1ab1a94, 0xc024c2eb2dc6ce41, 0x3fd8f2fb983a2027},
		{0x3fd48573a64edd2e, 0x3fe230f5784c25c6, 0xc026165bfed3b4e2, 0x3f847ae147ae1478},
		{0x3fd4dbeb329a05dc, 0x3fe116f3756d5b6b, 0xc027fb82a3ff023c, 0x3fc81fde3c79ff66},
		{0x3fc9025119be2acc, 0x3fd6db1dcd0a7b1f, 0xc028f8a0a887199c, 0x3f847ae147ae1478},
	},
	converged: false,
	fp:        0x89d9a883e9ce78e3,
}

// 3d-incremental
var goldenRepeat3DIncremental = goldenTrace{
	calls: 12,
	rows:  []int{9, 42, 57, 48, 2, 3, 14, 53, 7, 23},
	iters: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	bits: [][4]uint64{
		{0x3febfbd75ff13096, 0x3ff318f516bbab9c, 0xc00973fc5f00a5fc, 0x3fb9a180b5ece84e},
		{0x3fe9dc5be71b80ac, 0x3ff2e197a847087b, 0xc013dcc2cc05dde0, 0x3fb9a180b5ece84e},
		{0x3fe7f500521715c8, 0x3ff1e741a3f03830, 0xc0186dfd0806a922, 0x3fb9a180b5ece84e},
		{0x3fe65a6adea4a9bc, 0x3ff123e87182798e, 0xc01d3e63ac803311, 0x3fb9a180b5ece84e},
		{0x3fe502d66b965414, 0x3ff0d1242ca07f2d, 0xc0209b558db20ba5, 0x3fb9a180b5ece84e},
		{0x3fe23a61ae5a8e9a, 0x3fedb6d3510123bb, 0xc0230b2f54f7e6d4, 0x3fb9a180b5ece84e},
		{0x3fe0396c24753530, 0x3fedb5d3d754a8fe, 0xc02543111e3ab73f, 0x3fb9a180b5ece84e},
		{0x3fdc3d8506cb2914, 0x3fe8692be6517963, 0xc026f73e2a86cc90, 0x3fb9a180b5ece84e},
		{0x3fd9d89180be6325, 0x3fe55742edd0cf54, 0xc028e183b829bbcc, 0x3fb9a180b5ece84e},
		{0x3fd751701d8eb0d2, 0x3fe556cb7b4513ea, 0xc02a59d1b905de68, 0x3fb9a180b5ece84e},
	},
	converged: false,
	fp:        0xbe8d4d3f13131bd4,
}

// 3d-sparse
var goldenRepeat3DSparse = goldenTrace{
	calls: 11,
	rows:  []int{9, 1, 2, 4, 5, 6, 6, 42},
	iters: []int{1, 2, 3, 4, 5, 6, 7, 8},
	bits: [][4]uint64{
		{0x3fd67cd05027e315, 0x3fd67cd0829d8c9d, 0xc01096fd19b8295e, 0x3feb7619c0af0357},
		{0x3fe1bac4067ce9c6, 0x3fe21c094161b4dd, 0xc017cc34ba9f601e, 0x3fed16ebf310b3b7},
		{0x3fe159e4d017e5ce, 0x3fe1c80389188717, 0xc01cf33f7758aa8e, 0x3febb6acf9f3e114},
		{0x3fe0e8c09c021fbe, 0x3fe1784775a850bf, 0xc020ee6123de8005, 0x3fea8160f816c211},
		{0x3fe0369d25cff2a0, 0x3fe0d80545d81358, 0xc022b42ebe9db67a, 0x3fe8292d87e0852c},
		{0x3fdef833a8000eb5, 0x3fe03712c9849b33, 0xc0245637b8d612fa, 0x3fe655e6e7e99d00},
		{0x3f9fe18b3f1975fe, 0x3f9fe2534275260c, 0xc02b275aab63ce38, 0x3ff17d8709cc10f5},
		{0x3fd44e3f7fdd0b3e, 0x3febe4fc0cfffd98, 0xc05620a42da2cbf2, 0x3f847ae147ae1478},
	},
	converged: false,
	fp:        0x5ed0b160f1329bea,
}

// no-revisit over the repeated pool
var runGoldenRepeatNoRevisit = runGoldenTrace{
	trainRows: []int{2, 40, 12, 22, 44, 20, 32, 23, 8, 29, 42, 19, 52, 31, 38, 24, 3},
	recs: []runGoldenRec{
		{1, 20, 6, [7]uint64{0x3ff0cf527fa52902, 0x3fc120476fcee0bf, 0x3fe1c39034df1403, 0x3fed1745d1745d17, 0x3fef9e7ccdcf82d6, 0xc0173d4f23f6e2f2, 0x3f847ae147ae1478}},
		{2, 32, 7, [7]uint64{0x3fc138123b6b745c, 0x3fa34193d17431de, 0x3fabd80abec08f12, 0x3fed1745d1745d17, 0x4022aa43779e1ab0, 0xc01da52542c88088, 0x3f847ae147ae1478}},
		{3, 23, 8, [7]uint64{0x3fa4efd2bb585142, 0x3f8f8b85a04973f1, 0x3faad1ccdf07d155, 0x3fe1745d1745d174, 0x408eb7e7de56b6ad, 0xc018c499574036b2, 0x3f847ae147ae1478}},
		{4, 8, 9, [7]uint64{0x3f956efb9f737e17, 0x3f8a2f50a6bcbc70, 0x3fab47bba0b46b31, 0x3fe45d1745d1745d, 0x408ec927e9247efb, 0xc0118f12bd87e9cc, 0x3f847ae147ae1478}},
		{5, 29, 10, [7]uint64{0x3f92b5e288b2b661, 0x3f874b8c071b5b78, 0x3faddc08328b4435, 0x3fe1745d1745d174, 0x408f08fa3fcb5e76, 0xc00a7092e0dac3d0, 0x3f847ae147ae1478}},
		{6, 42, 11, [7]uint64{0x3f8fa7a4e90a166a, 0x3f85ef3cbe8da7cc, 0x3fb2ad7cefa6e29d, 0x3fd1745d1745d174, 0x408f27685f49062b, 0xc0073f91d50cb590, 0x3f864da8bddea653}},
		{7, 19, 12, [7]uint64{0x3fa7677210732d6e, 0x3fa3c291e85e2906, 0x3fa5f417fa05c4b3, 0x3ff0000000000000, 0x408f301dec068926, 0xc0038537312e76d2, 0x3fa96676a98e5d8b}},
		{8, 52, 13, [7]uint64{0x3fa56064b6fecebd, 0x3fa235ff4c89e950, 0x3fa62d1cd7721ad7, 0x3ff0000000000000, 0x409f48c58d72ea9d, 0xbfe5e23ec19ff140, 0x3fa76c14aaedde88}},
		{9, 31, 14, [7]uint64{0x3fa1f27bb604cb73, 0x3fa08d85187972ab, 0x3fa649695b3db80f, 0x3ff0000000000000, 0x409f4f3bb248bd19, 0x3ff389b0e4e72940, 0x3fa586fa4e1c0c85}},
		{10, 38, 15, [7]uint64{0x3fa142eed446e60c, 0x3f9e37768dbc0075, 0x3fa59c59b6ec83cb, 0x3ff0000000000000, 0x409f95aa43e7876a, 0x4007ab008a7beb40, 0x3fa4c1f7db76c719}},
		{11, 24, 16, [7]uint64{0x3fa08d336989124e, 0x3f9caddbcc45d6f9, 0x3fa408b8935989c0, 0x3ff0000000000000, 0x40a28fa3f2dca5b7, 0x4012f59a003757c6, 0x3fa45253e67bcbab}},
		{12, 3, 17, [7]uint64{0x3f9d3b72a9f43358, 0x3f9b149239d16bb0, 0x3fa3168a43c851ec, 0x3ff0000000000000, 0x40a2afa67facb135, 0x4019f75ebe7e440c, 0x3fa423b9dd6682ca}},
	},
	converged: false,
	fp:        0x54ab6c4f6c8ce325,
	draws:     0,
	attempts:  map[int]int{},
}

// incremental over the repeated pool
var runGoldenRepeatIncremental = runGoldenTrace{
	trainRows: []int{2, 40, 12, 22, 44, 20, 32, 23, 37, 29, 42, 38, 34, 23, 20, 24, 49},
	recs: []runGoldenRec{
		{1, 20, 6, [7]uint64{0x3ff0cf527fa52902, 0x3fc120476fcee0bf, 0x3fe1c39034df1403, 0x3fed1745d1745d17, 0x3fef9e7ccdcf82d6, 0xc0173d4f23f6e2f2, 0x3f847ae147ae1478}},
		{2, 32, 7, [7]uint64{0x3fc05e2aafda4c5c, 0x3fa211a5515d4273, 0x3fab7e5776c78cb6, 0x3fed1745d1745d17, 0x4022aa43779e1ab0, 0xc01daa09359c592f, 0x3f847ae147ae1478}},
		{3, 23, 8, [7]uint64{0x3fa79995128ade29, 0x3f918afe801561bc, 0x3faaee568b7387b8, 0x3fe45d1745d1745d, 0x408eb7e7de56b6ad, 0xc019226f112cf6f2, 0x3f847ae147ae1478}},
		{4, 37, 9, [7]uint64{0x3f989fd52b1915d5, 0x3f8c2c5e4059f351, 0x3fab68dfc66a58bf, 0x3fe45d1745d1745d, 0x408ec313f12e3b92, 0xc011ed879d2d071a, 0x3f847ae147ae1478}},
		{5, 29, 10, [7]uint64{0x3f8cfe323915233c, 0x3f84e98cc9ec2654, 0x3fabb1ae15f3aa2d, 0x3fe45d1745d1745d, 0x408f02e647d51b0d, 0xc000af025ac81e7c, 0x3f847ae147ae1478}},
		{6, 42, 11, [7]uint64{0x3f86879bc45e4c9a, 0x3f82710ed2a5f820, 0x3fad92874ea58ad4, 0x3fd745d1745d1746, 0x408f21546752c2c2, 0xc026416f095fe1f9, 0x3f847ae147ae1478}},
		{7, 38, 12, [7]uint64{0x3f8557b8013c8c9b, 0x3f820a322fe15bef, 0x3fa80ef061532c64, 0x3fd745d1745d1746, 0x408fae318a905764, 0xc043e63d45debefc, 0x3f847ae147ae1478}},
		{8, 34, 13, [7]uint64{0x3f84104d3b4c7167, 0x3f81738f7bfde262, 0x3fa4f8aacfd00a13, 0x3fd745d1745d1746, 0x408fcd386568aee3, 0xc044eafa715be339, 0x3f847ae147ae1478}},
		{9, 23, 14, [7]uint64{0x3f83e527c8929adf, 0x3f808301e9d02d0f, 0x3fa4fa9de469c469, 0x3fd745d1745d1746, 0x409f1d3b9af07692, 0xc0461bf989abffde, 0x3f847ae147ae1478}},
		{10, 20, 15, [7]uint64{0x3f83c9a43752f7ce, 0x3f801cbd39d1425c, 0x3fa4f8b996388613, 0x3fd745d1745d1746, 0x409f212f6a8a3082, 0xc0446f4926fc8e28, 0x3f847ae147ae1478}},
		{11, 24, 16, [7]uint64{0x3f824d445d5d7228, 0x3f7fb2a8b735e174, 0x3fa4c0cdf076d876, 0x3fd745d1745d1746, 0x40a25566862dfa43, 0xc0433cfff8683cdb, 0x3f847ae147ae1478}},
		{12, 49, 17, [7]uint64{0x3f80942caddce2fc, 0x3f7e987f816e790f, 0x3fa31583a0c7ffdc, 0x3fd745d1745d1746, 0x40a289fa1f6b11d1, 0xc04704a528db5b7b, 0x3f847ae147ae1478}},
	},
	converged: false,
	fp:        0x22282f666eb3fe81,
	draws:     0,
	attempts:  map[int]int{},
}
