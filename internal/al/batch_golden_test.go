package al

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// batchGoldenRound is one pinned batch round: the rows it picked, the
// training-set size after it, and the raw bits of AMSD, RMSE, CumCost
// and WallClock (the sum over rounds of the round's largest cost).
type batchGoldenRound struct {
	rows  []int
	train int
	bits  [4]uint64
}

type batchGoldenCase struct {
	name     string
	cfg      LoopConfig
	batch    int
	rounds   int
	withTest bool
	want     []batchGoldenRound
}

// batchGoldenRun runs one batch-mode realization and reports its
// iterations as rounds.
func batchGoldenRun(t *testing.T, ds *dataset.Dataset, part dataset.Partition, gc batchGoldenCase) []batchGoldenRound {
	t.Helper()
	cfg := gc.cfg
	cfg.BatchSize, cfg.Iterations = gc.batch, gc.rounds
	res, err := Run(ds, part, cfg, rand.New(rand.NewSource(61)))
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	return batchRounds(ds, res.Records)
}

// batchRounds groups a batch-mode run's records by iteration. The picks
// of an iteration share its AMSD and RMSE, and its wall clock is its
// most expensive pick, as if the picks ran in parallel.
func batchRounds(ds *dataset.Dataset, recs []IterationRecord) []batchGoldenRound {
	bits := math.Float64bits
	var rounds []batchGoldenRound
	var roundMax []float64
	for i, r := range recs {
		if i == 0 || r.Iter != recs[i-1].Iter {
			rounds = append(rounds, batchGoldenRound{})
			roundMax = append(roundMax, 0)
		}
		k := len(rounds) - 1
		rounds[k].rows = append(rounds[k].rows, r.Row)
		rounds[k].train = r.Train
		rounds[k].bits = [4]uint64{bits(r.AMSD), bits(r.RMSE), bits(r.CumCost)}
		roundMax[k] = math.Max(roundMax[k], ds.CostAt(r.Row))
	}
	var wall float64
	for k := range rounds {
		wall += roundMax[k]
		rounds[k].bits[3] = bits(wall)
	}
	return rounds
}

func batchGoldenLiteral(rounds []batchGoldenRound) string {
	var b strings.Builder
	b.WriteString("[]batchGoldenRound{\n")
	for _, r := range rounds {
		fmt.Fprintf(&b, "\t{%#v, %d, [4]uint64{%#016x, %#016x, %#016x, %#016x}},\n",
			r.rows, r.train, r.bits[0], r.bits[1], r.bits[2], r.bits[3])
	}
	b.WriteString("}")
	return b.String()
}

// TestBatchGoldenTraces pins batch-mode selection (kriging believer)
// for Variance Reduction and Cost Efficiency, with and without
// revisits, with and without a held-out test set. The non-revisiting
// cost-efficiency case exhausts its pool, so its last round is short.
// The literals were recorded once and must never be re-recorded to
// make a refactor pass.
func TestBatchGoldenTraces(t *testing.T) {
	ds := synthDS(t, 24, 0.05, 62)
	withTest, err := dataset.RandomPartition(ds, dataset.PartitionConfig{NInitial: 2, TestFrac: 0.25},
		rand.New(rand.NewSource(63)))
	if err != nil {
		t.Fatal(err)
	}
	noTest := dataset.Partition{Initial: withTest.Initial, Active: append(append([]int(nil), withTest.Active...), withTest.Test...), Test: []int{}}
	vr := quickLoop(VarianceReduction{}, 0)
	ce := quickLoop(CostEfficiency{}, 0)
	vrNoRevisit, ceNoRevisit := vr, ce
	vrNoRevisit.AllowRevisit = false
	ceNoRevisit.AllowRevisit = false
	cases := []batchGoldenCase{
		{name: "vr-revisit-test", cfg: vr, batch: 3, rounds: 4, withTest: true, want: batchGoldenVRRevisitTest},
		{name: "ce-norevisit-test", cfg: ceNoRevisit, batch: 4, rounds: 5, withTest: true, want: batchGoldenCENoRevisitTest},
		{name: "vr-norevisit-notest", cfg: vrNoRevisit, batch: 4, rounds: 3, want: batchGoldenVRNoRevisitNoTest},
		{name: "ce-revisit-notest", cfg: ce, batch: 2, rounds: 4, want: batchGoldenCERevisitNoTest},
	}
	for _, gc := range cases {
		part := noTest
		if gc.withTest {
			part = withTest
		}
		got := batchGoldenRun(t, ds, part, gc)
		if g, w := batchGoldenLiteral(got), batchGoldenLiteral(gc.want); g != w {
			t.Errorf("%s: batch trace diverges from the pinned golden\n got: %s\nwant: %s", gc.name, g, w)
		}
	}
}

// Recorded golden traces (see batchGoldenRound).

// vr-revisit-test
var batchGoldenVRRevisitTest = []batchGoldenRound{
	{[]int{0, 8, 4}, 5, [4]uint64{0x3ff16233cd0a64c8, 0x3ff18e2eb17c15d3, 0x4040e01018929ede, 0x4035a2335420104e}},
	{[]int{22, 0, 21}, 8, [4]uint64{0x3fd4f8cb75a7b4ab, 0x3ff1c09382c820a8, 0x40957744f0bc55d2, 0x408c38220700dd3c}},
	{[]int{2, 17, 14}, 11, [4]uint64{0x3ff46d348ed3f1ba, 0x3ff973bbd9a3e0c5, 0x4095d077230d9d8e, 0x408cac15c1c75d7f}},
	{[]int{16, 12, 1}, 14, [4]uint64{0x3feac1cabda4a488, 0x3ff973bbd9a3e0c5, 0x4095f2cec016e44c, 0x408cce76d9ee745d}},
}

// ce-norevisit-test
var batchGoldenCENoRevisitTest = []batchGoldenRound{
	{[]int{9, 0, 4, 12}, 6, [4]uint64{0x3ff16233cd0a64c8, 0x3ff18e2eb17c15d3, 0x403d9b84ba2f1a7f, 0x4035a2335420104e}},
	{[]int{14, 1, 10, 16}, 10, [4]uint64{0x3fa0ba7c47e6ec7c, 0x3fd616ab3381d6b8, 0x404470aaa3875fab, 0x4039ee565902ec0e}},
	{[]int{2, 8, 17, 3}, 14, [4]uint64{0x3fb5dfed889c71ce, 0x3fd574d8dc037530, 0x4054f3f53a712eb6, 0x40443666d8e97a38}},
	{[]int{6, 5, 20, 21}, 18, [4]uint64{0x3fc18e11f388202e, 0x3fb15d8019cb24b7, 0x408aeaed9eb9258a, 0x407f24ae4f5794c7}},
	{[]int{22}, 19, [4]uint64{0x3fb949522fd45d3d, 0x3fa59b4938e77de3, 0x409b3aff058c8122, 0x40958eb3ca05d38f}},
}

// vr-norevisit-notest
var batchGoldenVRNoRevisitNoTest = []batchGoldenRound{
	{[]int{0, 7, 23, 11}, 6, [4]uint64{0x3ff11207c3732179, 0x7ff8000000000001, 0x408cfbacc3f92daa, 0x408c5b1fe6177a6f}},
	{[]int{3, 21, 1, 5}, 10, [4]uint64{0x3fa8d8a35bb8fab3, 0x7ff8000000000001, 0x40964956711ea80a, 0x40955508501a5698}},
	{[]int{16, 10, 13, 20}, 14, [4]uint64{0x3fa38164e2ec75f5, 0x7ff8000000000001, 0x409a96853e799c34, 0x409981619225809c}},
}

// ce-revisit-notest
var batchGoldenCERevisitNoTest = []batchGoldenRound{
	{[]int{9, 0}, 4, [4]uint64{0x3ff11207c3732179, 0x7ff8000000000001, 0x40193746a9998de0, 0x4015f369f0607089}},
	{[]int{0, 1}, 6, [4]uint64{0x3fd6c6035f5a0804, 0x7ff8000000000001, 0x40237a1ab4f5afbc, 0x4020363dfbbc9265}},
	{[]int{2, 17}, 8, [4]uint64{0x3ff05a3368542414, 0x7ff8000000000001, 0x403e7163f711b556, 0x4036999656ae5194}},
	{[]int{14, 16}, 10, [4]uint64{0x3fe849e18c53e186, 0x7ff8000000000001, 0x40422ade79d7d14f, 0x403ae5b95b912d54}},
}
