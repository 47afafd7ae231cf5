package al

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

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
