package al

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faults"
)

// runGoldenRec is one pinned iteration record: the integer fields plus
// the raw bits of SDChosen, AMSD, RMSE, Coverage, CumCost, LML and Noise.
type runGoldenRec struct {
	iter, row, train int
	bits             [7]uint64
}

// runGoldenTrace is everything a Run realization decides, in the style
// of goldenTrace. For a loop-owned RNG it also pins the position of the
// counting source and the per-row attempt counts of the last
// checkpoint. The literals below were recorded once and must never be
// re-recorded to make a refactor pass.
type runGoldenTrace struct {
	trainRows []int
	recs      []runGoldenRec
	converged bool
	fp        uint64
	draws     uint64
	attempts  map[int]int
}

type runGoldenCase struct {
	name string
	cfg  LoopConfig
	// callerRNG runs with an explicit rng; otherwise the loop owns a
	// counting RNG and checkpoints after every iteration.
	callerRNG bool
	want      runGoldenTrace
}

// runGoldenDS is the dataset and partition every Run golden case uses:
// 40 noisy points, five initial rows, a fifth held out for
// RMSE/Coverage.
func runGoldenDS(t *testing.T) (*dataset.Dataset, dataset.Partition) {
	t.Helper()
	ds := synthDS(t, 40, 0.05, 3)
	part, err := dataset.RandomPartition(ds, dataset.PartitionConfig{NInitial: 5, TestFrac: 0.2},
		rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	return ds, part
}

// runGoldenFaulted is the faulted case's configuration: injected job
// failures and corrupted readings, the outlier guard, a tight retry
// budget so some candidates are skipped, and incremental updates so a
// resume rebuilds the model through the update chain.
func runGoldenFaulted() LoopConfig {
	cfg := quickLoop(EpsilonGreedy{Base: VarianceReduction{}, Eps: 0.25}, 12)
	cfg.Seed = 11
	cfg.ReoptimizeEvery = 2
	cfg.RetryBudget = 1
	cfg.GuardSigma = 3
	cfg.Faults = faults.New(faults.Config{Seed: 5, JobFailRate: 0.3, CorruptRate: 0.2})
	return cfg
}

func runGoldenCases() []runGoldenCase {
	noRevisit := quickLoop(EpsilonGreedy{Base: VarianceReduction{}, Eps: 0.4}, 10)
	noRevisit.AllowRevisit = false
	noRevisit.Seed = 7
	incremental := quickLoop(VarianceReduction{}, 10)
	incremental.ReoptimizeEvery = 3
	incremental.DynamicFloorC = 0.05
	budget := quickLoop(CostEfficiency{}, 20)
	budget.CostBudget = 8
	converge := quickLoop(VarianceReduction{}, 0)
	converge.ConvergeWindow = 2
	converge.ConvergeTol = 0.2
	sparse := quickLoop(VarianceReduction{}, 8)
	sparse.Model = ModelSparse
	sparse.ModelOptions = ModelOptions{Inducing: 8}
	return []runGoldenCase{
		{name: "dense-test", cfg: quickLoop(VarianceReduction{}, 8), callerRNG: true, want: runGoldenDense},
		{name: "no-revisit", cfg: noRevisit, want: runGoldenNoRevisit},
		{name: "faulted", cfg: runGoldenFaulted(), want: runGoldenFaultedTrace},
		{name: "incremental", cfg: incremental, want: runGoldenIncremental},
		{name: "budget", cfg: budget, want: runGoldenBudget},
		{name: "converge", cfg: converge, want: runGoldenConverge},
		{name: "sparse", cfg: sparse, want: runGoldenSparse},
	}
}

// runGoldenOf extracts the pinned trace of res; ckPath names the last
// checkpoint of a loop-owned RNG ("" for a caller RNG).
func runGoldenOf(t *testing.T, res Result, ckPath string) runGoldenTrace {
	t.Helper()
	bits := math.Float64bits
	got := runGoldenTrace{trainRows: res.TrainRows, converged: res.Converged, fp: res.Final.Fingerprint()}
	for _, r := range res.Records {
		got.recs = append(got.recs, runGoldenRec{r.Iter, r.Row, r.Train, [7]uint64{
			bits(r.SDChosen), bits(r.AMSD), bits(r.RMSE), bits(r.Coverage),
			bits(r.CumCost), bits(r.LML), bits(r.Noise),
		}})
	}
	if ckPath != "" {
		ck, err := LoadCheckpoint(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		got.draws = ck.Draws
		got.attempts = ck.Attempts
	}
	return got
}

// literal renders a trace as the Go literal pinned below.
func (g runGoldenTrace) literal() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runGoldenTrace{\n\ttrainRows: %#v,\n\trecs: []runGoldenRec{\n", g.trainRows)
	for _, r := range g.recs {
		fmt.Fprintf(&b, "\t\t{%d, %d, %d, [7]uint64{%#016x, %#016x, %#016x, %#016x, %#016x, %#016x, %#016x}},\n",
			r.iter, r.row, r.train, r.bits[0], r.bits[1], r.bits[2], r.bits[3], r.bits[4], r.bits[5], r.bits[6])
	}
	fmt.Fprintf(&b, "\t},\n\tconverged: %v,\n\tfp: %#016x,\n\tdraws: %d,\n\tattempts: map[int]int{", g.converged, g.fp, g.draws)
	rows := make([]int, 0, len(g.attempts))
	for row := range g.attempts {
		rows = append(rows, row)
	}
	sort.Ints(rows)
	for i, row := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d: %d", row, g.attempts[row])
	}
	b.WriteString("},\n}")
	return b.String()
}

// TestRunGoldenTraces pins Run's selection traces and monitoring
// quantities across versions: a held-out test set, pool removal with an
// RNG-drawing strategy, injected faults under the guard, incremental
// updates with the dynamic noise floor, both early stops and the sparse
// tier.
func TestRunGoldenTraces(t *testing.T) {
	ds, part := runGoldenDS(t)
	for _, gc := range runGoldenCases() {
		var rng *rand.Rand
		cfg := gc.cfg
		if gc.callerRNG {
			rng = rand.New(rand.NewSource(41))
		} else {
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
		}
		res, err := Run(ds, part, cfg, rng)
		if err != nil {
			t.Fatalf("%s: Run: %v", gc.name, err)
		}
		got := runGoldenOf(t, res, cfg.CheckpointPath)
		if g, w := got.literal(), gc.want.literal(); g != w {
			t.Errorf("%s: trace diverges from the pinned golden\n got: %s\nwant: %s", gc.name, g, w)
		}
	}
}

// TestResumeCommittedCheckpoint resumes a checkpoint that an earlier
// version of Run wrote after iteration 6 of the faulted case: the
// checkpoint format is stable, and the resumed run reproduces the
// uninterrupted faulted trace bit for bit.
func TestResumeCommittedCheckpoint(t *testing.T) {
	ds, part := runGoldenDS(t)
	cfg := runGoldenFaulted()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	res, err := Resume(ds, part, cfg, filepath.Join("testdata", "run_faulted_iter6.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := runGoldenOf(t, res, cfg.CheckpointPath)
	if g, w := got.literal(), runGoldenFaultedTrace.literal(); g != w {
		t.Errorf("resumed trace diverges from the pinned golden\n got: %s\nwant: %s", g, w)
	}
}

// Recorded golden traces (see runGoldenTrace).

// dense-test
var runGoldenDense = runGoldenTrace{
	trainRows: []int{14, 29, 15, 22, 33, 0, 39, 5, 9, 36, 0, 3, 26},
	recs: []runGoldenRec{
		{1, 0, 6, [7]uint64{0x3ff34a8cadb6e0a9, 0x3fcf7f9db1dfa549, 0x3fe0855303a54291, 0x3fdb6db6db6db6db, 0x3fecfcf8fae6625e, 0xc00fe28444e3668f, 0x3f847ae147ae1478}},
		{2, 39, 7, [7]uint64{0x3fdbe0063012cf16, 0x3fb9c9a70690e27e, 0x3fe0b4f6cc2bbecf, 0x3fc2492492492492, 0x408ab0a74291c85e, 0xc0143049749b7655, 0x3f847ae147ae1478}},
		{3, 5, 8, [7]uint64{0x3fd1bbd9203106cb, 0x3fb3e6be7f2598cd, 0x3fd945a47f2f5032, 0x3fdb6db6db6db6db, 0x408b2247f1331824, 0xc01657851ca6aa1e, 0x3f9c5eb11cbda3b4}},
		{4, 9, 9, [7]uint64{0x3faefa7afa22f8df, 0x3fa984ce8fb600a8, 0x3fb1753230899ed8, 0x3ff0000000000000, 0x408c25fe22955e2e, 0xc01a3c69b4e3757b, 0x3fab46c1a0d22e25}},
		{5, 36, 10, [7]uint64{0x3faa8698c845f7b6, 0x3fa522ef7c47c292, 0x3fb20d54a78f87f8, 0x3feb6db6db6db6db, 0x409737c1ac6c397a, 0xc0143e95f67f6930, 0x3fa81c9f66123eb3}},
		{6, 0, 11, [7]uint64{0x3fa59e5a35bdb0e2, 0x3fa22a417a39edac, 0x3fb31526f6551307, 0x3feb6db6db6db6db, 0x40973b614b8b9646, 0xc00dad438427c544, 0x3fa5dcb9e71e2b57}},
		{7, 3, 12, [7]uint64{0x3fa27613228ed319, 0x3f9f4f1743ba091e, 0x3fb342a8816fee18, 0x3fe6db6db6db6db7, 0x40974e32144f1f11, 0xbffbd46397ec36f0, 0x3fa2d14b7ceb33c0}},
		{8, 26, 13, [7]uint64{0x3fa3a404311212b0, 0x3fa04d641a298dc7, 0x3fb21df912283dad, 0x3feb6db6db6db6db, 0x4097599c3d22e464, 0xbfe4e483552fe6b0, 0x3fa418913b141131}},
	},
	converged: false,
	fp:        0xc4109836883488d5,
	draws:     0,
	attempts:  map[int]int{},
}

// no-revisit
var runGoldenNoRevisit = runGoldenTrace{
	trainRows: []int{14, 29, 15, 22, 33, 0, 5, 35, 39, 23, 9, 3, 27, 38, 18},
	recs: []runGoldenRec{
		{1, 0, 6, [7]uint64{0x3ff34a8cadb6e0a9, 0x3fcf7f9db1dfa549, 0x3fe0855303a54291, 0x3fdb6db6db6db6db, 0x3fecfcf8fae6625e, 0xc00fe28444e3668f, 0x3f847ae147ae1478}},
		{2, 5, 7, [7]uint64{0x3fd03e35d04b57d6, 0x3fbaa5e2f14320c0, 0x3fe0b4f6cc2bbecf, 0x3fc2492492492492, 0x402e37fb38025796, 0xc0143049749b7655, 0x3f847ae147ae1478}},
		{3, 35, 8, [7]uint64{0x3fc480f64bb6b6e4, 0x3fbf1ecd4c9bc496, 0x3fc36bc5b1dcf11c, 0x3fe2492492492492, 0x40773e1bb93657e0, 0xc01c0f593feca3d6, 0x3f847ae147ae1478}},
		{4, 39, 9, [7]uint64{0x3fcccafc2bbf5659, 0x3fae04770afbe369, 0x3fb18812f5b89e6c, 0x3ff0000000000000, 0x4093243af0771d5a, 0xc0154bd8a61886e2, 0x3fa879b0c8e4c151}},
		{5, 23, 10, [7]uint64{0x3fa4086f58fc991c, 0x3fa3365c8825e61b, 0x3fb1d4fa26584b3b, 0x3ff0000000000000, 0x40932a584e496770, 0xc0134922268e7cd9, 0x3fa5a368dbb39d7d}},
		{6, 9, 11, [7]uint64{0x3fa8086710f78f4e, 0x3fa155d078d6de00, 0x3fb0cd617a62c6ab, 0x3ff0000000000000, 0x4093ac3366fa8a75, 0xc009a1b63ec5821c, 0x3fa4825d2bcd6927}},
		{7, 3, 12, [7]uint64{0x3fa34b196cf52e55, 0x3f9f3a18e63c0364, 0x3fb115c4d39edcdc, 0x3feb6db6db6db6db, 0x4093bf042fbe1340, 0xbffb194c948719f0, 0x3fa45f7728ce6319}},
		{8, 27, 13, [7]uint64{0x3fa26da9aea53037, 0x3fa06ae85e6cbcff, 0x3faf28cc15f9e1cb, 0x3feb6db6db6db6db, 0x4093d16230f33445, 0xbfe4d66c6979f3d0, 0x3fa5ed791038e61c}},
		{9, 38, 14, [7]uint64{0x3f9fd6e44af0b5a4, 0x3f9ca1f1916e1be3, 0x3faff8d93e435a89, 0x3feb6db6db6db6db, 0x40a1a2a0fcb029d1, 0x3ff5927217b054b0, 0x3fa3b14fec1c610c}},
		{10, 18, 15, [7]uint64{0x3fa1ca762a322195, 0x3f9f7c1ad55f0431, 0x3fb02299af20c1ca, 0x3feb6db6db6db6db, 0x40a1a75f1b760450, 0x3fff12eb40342330, 0x3fa67ba8f3eb19d9}},
	},
	converged: false,
	fp:        0x8b601f12380e1cf1,
	draws:     43,
	attempts:  map[int]int{0: 1, 3: 1, 5: 1, 9: 1, 18: 1, 23: 1, 27: 1, 35: 1, 38: 1, 39: 1},
}

// faulted
var runGoldenFaultedTrace = runGoldenTrace{
	trainRows: []int{14, 29, 15, 22, 33, 0, 39, 5, 9, 36, 0, 4, 26, 20, 10},
	recs: []runGoldenRec{
		{1, 0, 6, [7]uint64{0x3ff34a8cadb6e0a9, 0x3fcf7f9db1dfa549, 0x3fe0855303a54291, 0x3fdb6db6db6db6db, 0x3fecfcf8fae6625e, 0xc00fe28444e3668f, 0x3f847ae147ae1478}},
		{2, 39, 7, [7]uint64{0x3fde353633c55f48, 0x3fbb8a8ccc6c6c17, 0x3fe0c737415cc481, 0x3fc2492492492492, 0x408ab0a74291c85e, 0xc0145e3935b9db4c, 0x3f847ae147ae1478}},
		{3, 5, 8, [7]uint64{0x3fd1bbd931a38635, 0x3fb3e6bedb2c7b05, 0x3fd945a343316f0c, 0x3fdb6db6db6db6db, 0x408b2247f1331824, 0xc01657851ca6a9ea, 0x3f9c5eb310e4ccdf}},
		{4, 9, 9, [7]uint64{0x3fad0d6310721fb7, 0x3fa14216f595b146, 0x3fb3b87e0806394f, 0x3fe6db6db6db6db7, 0x408c25fe22955e2e, 0xc01f1864060208c5, 0x3f9c5eb310e4ccdf}},
		{5, 36, 10, [7]uint64{0x3faa8698119b5ad5, 0x3fa522eeed6ae6a3, 0x3fb20d54a7b7fc42, 0x3feb6db6db6db6db, 0x409737c1ac6c397a, 0xc0143e95f67f6a32, 0x3fa81c9ecd2a38b4}},
		{6, 0, 11, [7]uint64{0x3fa7cc7270bf763f, 0x3fa39b002b97e0fa, 0x3fb2d784e7a499b7, 0x3feb6db6db6db6db, 0x40973b614b8b9646, 0xc00dfe8dea972460, 0x3fa81c9ecd2a38b4}},
		{9, 4, 12, [7]uint64{0x3fa20e04f2d6b1fc, 0x3f9ee58d47a90e82, 0x3fb342a87b2fb66d, 0x3fe6db6db6db6db7, 0x40975ca3e801cccf, 0xbffbd46397ec3580, 0x3fa2d14b9f611ff3}},
		{10, 26, 13, [7]uint64{0x3fa1c5ceef53713a, 0x3f9dcee462bdef0f, 0x3fb24b647f04d967, 0x3fe6db6db6db6db7, 0x4097680e10d59222, 0xbfc60eb959fbdec0, 0x3fa2d14b9f611ff3}},
		{11, 20, 14, [7]uint64{0x3f9f67769fe1872f, 0x3f99f10f8d70c185, 0x3fb2666e15e7ee1d, 0x3fe6db6db6db6db7, 0x40976de695012fe7, 0x3fff76fc63dd2a58, 0x3fa0dc6844466be5}},
		{12, 10, 15, [7]uint64{0x3f9b33be473bdbaa, 0x3f985027a71d2851, 0x3fb29cb342ffb362, 0x3fe6db6db6db6db7, 0x4097dfff8246c21d, 0x400ffca0c9f62788, 0x3fa0dc6844466be5}},
	},
	converged: false,
	fp:        0xc6d9e1479e8da124,
	draws:     30,
	attempts:  map[int]int{0: 3, 3: 2, 4: 1, 5: 1, 9: 2, 10: 1, 20: 1, 26: 1, 36: 1, 39: 4},
}

// incremental
var runGoldenIncremental = runGoldenTrace{
	trainRows: []int{14, 29, 15, 22, 33, 0, 39, 5, 9, 36, 0, 3, 39, 26, 20},
	recs: []runGoldenRec{
		{1, 0, 6, [7]uint64{0x3ff3c023ef14a809, 0x3fd1744f02402d30, 0x3fde401203f76a61, 0x3fe2492492492492, 0x3fecfcf8fae6625e, 0xc0102d8d5ec5de4b, 0x3f96e5b7d16657e2}},
		{2, 39, 7, [7]uint64{0x3fdf12a8bbffac53, 0x3fc0a45f483b7922, 0x3fdfc8de2b2ce504, 0x3fc2492492492492, 0x408ab0a74291c85e, 0xc014b542c218427c, 0x3f96e5b7d16657e2}},
		{3, 5, 8, [7]uint64{0x3fd4899e7eaa5a8e, 0x3fb584dcd72f1b4d, 0x3fe01bb7cd87f54e, 0x3fc2492492492492, 0x408b2247f1331824, 0xc0173782714f43eb, 0x3f96e5b7d16657e2}},
		{4, 9, 9, [7]uint64{0x3faefa7a9b6d9f7e, 0x3fa984ce3dd98ee9, 0x3fb1753236de4265, 0x3ff0000000000000, 0x408c25fe22955e2e, 0xc01a3c69b4e37592, 0x3fab46c13e8fae9e}},
		{5, 36, 10, [7]uint64{0x3fad616737b70418, 0x3fa7bcc293ec8d20, 0x3fb1ea9636dc0432, 0x3ff0000000000000, 0x409737c1ac6c397a, 0xc0146762e2445ee9, 0x3fab46c13e8fae9e}},
		{6, 0, 11, [7]uint64{0x3faae26cd33e694a, 0x3fa6129926b5d6c7, 0x3fb2b38b3efc046e, 0x3ff0000000000000, 0x40973b614b8b9646, 0xc00eb8d742f3971c, 0x3fab46c13e8fae9e}},
		{7, 3, 12, [7]uint64{0x3fa27612e9eff241, 0x3f9f4f16eca4c65e, 0x3fb342a87fd2cffb, 0x3fe6db6db6db6db7, 0x40974e32144f1f11, 0xbffbd46397ec2d80, 0x3fa2d14b52658ddd}},
		{8, 39, 13, [7]uint64{0x3fa2344efeb1e757, 0x3f9ddc595d31e488, 0x3fb1e664b11db58c, 0x3fe6db6db6db6db7, 0x40a251730b3c533a, 0xbfea07ea27410df0, 0x3fa2d14b52658ddd}},
		{9, 26, 14, [7]uint64{0x3fa1b9e98240a385, 0x3f9d3a0d1a74d15a, 0x3fb1ed8438c5c22a, 0x3fe6db6db6db6db7, 0x40a257281fa635e3, 0x3ff379ecbbf069b8, 0x3fa2d14b52658ddd}},
		{10, 20, 15, [7]uint64{0x3f9f8b5132c33514, 0x3f9963ffa6d4f687, 0x3fb254c21ed3c69e, 0x3fe6db6db6db6db7, 0x40a25a1461bc04c6, 0x400c16e5f4bac1e0, 0x3fa078c0ae317060}},
	},
	converged: false,
	fp:        0xc7621b87828e640c,
	draws:     12,
	attempts:  map[int]int{0: 2, 3: 1, 5: 1, 9: 1, 20: 1, 26: 1, 36: 1, 39: 2},
}

// budget
var runGoldenBudget = runGoldenTrace{
	trainRows: []int{14, 29, 15, 22, 33, 0, 2, 0, 0, 0, 0, 0},
	recs: []runGoldenRec{
		{1, 0, 6, [7]uint64{0x3ff34a8cadb6e0a9, 0x3fcf7f9db1dfa549, 0x3fe0855303a54291, 0x3fdb6db6db6db6db, 0x3fecfcf8fae6625e, 0xc00fe28444e3668f, 0x3f847ae147ae1478}},
		{2, 2, 7, [7]uint64{0x3fc51263d318035b, 0x3fb9c9a70690e27e, 0x3fe0b4f6cc2bbecf, 0x3fc2492492492492, 0x40100dd9eb813eb4, 0xc0143049749b7655, 0x3f847ae147ae1478}},
		{3, 0, 8, [7]uint64{0x3f8477adac2ef457, 0x3fbb0722fe9612b7, 0x3fc800fae059c2e6, 0x3fd2492492492492, 0x4013ad790ade0b00, 0xc018d76a76c2a230, 0x3f847ae147ae1478}},
		{4, 0, 9, [7]uint64{0x3f7cf4497f3c7af6, 0x3fbafed5bf7a8a82, 0x3fc7fda32e041c87, 0x3fd2492492492492, 0x40174d182a3ad74c, 0xc006f81262a36c6a, 0x3f847ae147ae1478}},
		{5, 0, 10, [7]uint64{0x3f77a4b92b04ec73, 0x3fbafb505e9c2a43, 0x3fc7fc85d8c571d1, 0x3fd2492492492492, 0x401aecb74997a398, 0x3fe39763c351f810, 0x3f847ae147ae1478}},
		{6, 0, 11, [7]uint64{0x3f747a143cbffc92, 0x3fbaf942d9b7084e, 0x3fc7fbf72951924f, 0x3fd2492492492492, 0x401e8c5668f46fe4, 0x40109e428bd0ae54, 0x3f847ae147ae1478}},
		{7, 0, 12, [7]uint64{0x3f7250cd218bd45c, 0x3fbaf7e14c87fc2d, 0x3fc7fba18b4d594d, 0x3fd2492492492492, 0x402115fac4289e18, 0x401eeaab29188970, 0x3f847ae147ae1478}},
	},
	converged: false,
	fp:        0xec1cbdf5ab683316,
	draws:     21,
	attempts:  map[int]int{0: 6, 2: 1},
}

// converge
var runGoldenConverge = runGoldenTrace{
	trainRows: []int{14, 29, 15, 22, 33, 0, 39, 5, 9, 36, 0, 3, 26},
	recs: []runGoldenRec{
		{1, 0, 6, [7]uint64{0x3ff34a8cadb6e0a9, 0x3fcf7f9db1dfa549, 0x3fe0855303a54291, 0x3fdb6db6db6db6db, 0x3fecfcf8fae6625e, 0xc00fe28444e3668f, 0x3f847ae147ae1478}},
		{2, 39, 7, [7]uint64{0x3fdbe0063012cf16, 0x3fb9c9a70690e27e, 0x3fe0b4f6cc2bbecf, 0x3fc2492492492492, 0x408ab0a74291c85e, 0xc0143049749b7655, 0x3f847ae147ae1478}},
		{3, 5, 8, [7]uint64{0x3fd1bbd9203106cb, 0x3fb3e6be7f2598cd, 0x3fd945a47f2f5032, 0x3fdb6db6db6db6db, 0x408b2247f1331824, 0xc01657851ca6aa1e, 0x3f9c5eb11cbda3b4}},
		{4, 9, 9, [7]uint64{0x3faefa7afa22f8df, 0x3fa984ce8fb600a8, 0x3fb1753230899ed8, 0x3ff0000000000000, 0x408c25fe22955e2e, 0xc01a3c69b4e3757b, 0x3fab46c1a0d22e25}},
		{5, 36, 10, [7]uint64{0x3faa8698c845f7b6, 0x3fa522ef7c47c292, 0x3fb20d54a78f87f8, 0x3feb6db6db6db6db, 0x409737c1ac6c397a, 0xc0143e95f67f6930, 0x3fa81c9f66123eb3}},
		{6, 0, 11, [7]uint64{0x3fa59e5a35bdb0e2, 0x3fa22a417a39edac, 0x3fb31526f6551307, 0x3feb6db6db6db6db, 0x40973b614b8b9646, 0xc00dad438427c544, 0x3fa5dcb9e71e2b57}},
		{7, 3, 12, [7]uint64{0x3fa27612fc669517, 0x3f9f4f17486c4682, 0x3fb342a873c17a45, 0x3fe6db6db6db6db7, 0x40974e32144f1f11, 0xbffbd46397ec28c8, 0x3fa2d14bad88616b}},
		{8, 26, 13, [7]uint64{0x3fa3a4041da0f4c9, 0x3fa04d640746755a, 0x3fb21df917ac5e13, 0x3feb6db6db6db6db, 0x4097599c3d22e464, 0xbfe4e483553013f0, 0x3fa418911a3dc203}},
	},
	converged: true,
	fp:        0x5102f1aa1e04f319,
	draws:     24,
	attempts:  map[int]int{0: 2, 3: 1, 5: 1, 9: 1, 26: 1, 36: 1, 39: 1},
}

// sparse
var runGoldenSparse = runGoldenTrace{
	trainRows: []int{14, 29, 15, 22, 33, 0, 39, 5, 9, 36, 0, 3, 39},
	recs: []runGoldenRec{
		{1, 0, 6, [7]uint64{0x3ff34a90225a3b2c, 0x3fcf7fb903f1c130, 0x3fe0855299c51cb7, 0x3fdb6db6db6db6db, 0x3fecfcf8fae6625e, 0xc00fe281a889518f, 0x3f847ae147ae1478}},
		{2, 39, 7, [7]uint64{0x3fdbe00d295471e2, 0x3fb9c9d5ad183dab, 0x3fe0b4f66360cf24, 0x3fc2492492492492, 0x408ab0a74291c85e, 0xc01430477d442c5c, 0x3f847ae147ae1478}},
		{3, 5, 8, [7]uint64{0x3fd1bbf68a32be5f, 0x3fb3e6dfe2c2aca0, 0x3fd9458b53b34662, 0x3fdb6db6db6db6db, 0x408b2247f1331824, 0xc01657851ce9ea9c, 0x3f9c5eb11cbda3b4}},
		{4, 9, 9, [7]uint64{0x3faefa912398c827, 0x3fa984df3293b80b, 0x3fb17528f7731f85, 0x3ff0000000000000, 0x408c25fe22955e2e, 0xc01a3c69b053ffb9, 0x3fab46c1a0d22e25}},
		{5, 36, 10, [7]uint64{0x3faa85467e59e8b9, 0x3fa52349f647b588, 0x3fb20cd30e36b15c, 0x3feb6db6db6db6db, 0x409737c1ac6c397a, 0xc0143e9d179220ea, 0x3fa81c9f66123eb3}},
		{6, 0, 11, [7]uint64{0x3fa59e6c6e954b33, 0x3fa234af1bdebb8c, 0x3fb31cbef0b57fbe, 0x3feb6db6db6db6db, 0x40973b614b8b9646, 0xc00da518913aa3d8, 0x3fa5dcb9e71e2b57}},
		{7, 3, 12, [7]uint64{0x3fa27921a007d3a1, 0x3f9f6970b2920cdb, 0x3fb34c661f849203, 0x3fe6db6db6db6db7, 0x40974e32144f1f11, 0xbffbbd6da2115930, 0x3fa2d14bad88616b}},
		{8, 39, 13, [7]uint64{0x3fa370ded4fa4aa4, 0x3fa06878769754eb, 0x3fb22164c9895aa9, 0x3feb6db6db6db6db, 0x40a251730b3c533a, 0xbfe45f83b550c040, 0x3fa418911a3dc203}},
	},
	converged: false,
	fp:        0xe15718f43501ef9e,
	draws:     24,
	attempts:  map[int]int{0: 2, 3: 1, 5: 1, 9: 1, 36: 1, 39: 2},
}
