package al

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestLoopEmitsIterationSpans asserts the observability contract of Run
// documented in OBSERVABILITY.md: one "al.iteration" span per completed
// iteration, each with "al.model.update", "al.score" and "al.select"
// children, and a nested "gp.fit" under the refit's model update.
func TestLoopEmitsIterationSpans(t *testing.T) {
	obs.Default.Reset()
	var buf bytes.Buffer
	obs.SetSink(&buf)
	defer obs.SetSink(nil)

	d := synthDS(t, 30, 0.05, 1)
	part := synthPartition(t, d, 2)
	const iters = 3
	cfg := quickLoop(VarianceReduction{}, iters)
	if _, err := Run(d, part, cfg, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}

	if got := obs.C("al.iteration.count").Value(); got != iters {
		t.Errorf("al.iteration.count = %d, want %d", got, iters)
	}
	if got := obs.T("al.iteration.duration").Count(); got != iters {
		t.Errorf("al.iteration.duration observations = %d, want %d", got, iters)
	}
	if got := obs.C("al.refit.count").Value(); got != iters {
		t.Errorf("al.refit.count = %d, want %d (ReoptimizeEvery defaults to 1)", got, iters)
	}
	if got := obs.C("al.candidates.evaluated").Value(); got <= 0 {
		t.Errorf("al.candidates.evaluated = %d, want > 0", got)
	}

	spans, err := obs.ReadJSONLSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	parents := map[string]map[string]bool{}
	for _, s := range spans {
		count[s.Name]++
		if parents[s.Name] == nil {
			parents[s.Name] = map[string]bool{}
		}
		parents[s.Name][s.Parent] = true
	}
	if count["al.iteration"] != iters {
		t.Errorf("sink has %d al.iteration spans, want %d", count["al.iteration"], iters)
	}
	for _, child := range []string{"al.model.update", "al.score", "al.select"} {
		if count[child] != iters {
			t.Errorf("sink has %d %s spans, want %d", count[child], child, iters)
		}
		if !parents[child]["al.iteration"] || len(parents[child]) != 1 {
			t.Errorf("%s spans have parents %v, want only al.iteration", child, parents[child])
		}
	}
	if count["gp.fit"] != iters || !parents["gp.fit"]["al.model.update"] {
		t.Errorf("gp.fit spans: count=%d parents=%v, want %d nested under al.model.update",
			count["gp.fit"], parents["gp.fit"], iters)
	}
}

// TestScoreRowsCountsDistinctPoints: on a grid that holds each of 25
// points three times, every scoring pass shows the strategy all 75 rows
// (al.candidates.evaluated) but predicts each point once (al.score.rows,
// and gp.predict.points on the dense and the sparse tier alike).
func TestScoreRowsCountsDistinctPoints(t *testing.T) {
	const iters = 4
	for _, tier := range []string{ModelDense, ModelSparse} {
		obs.Default.Reset()
		cfg := quickLoop(VarianceReduction{}, iters)
		cfg.Model = tier
		if _, err := RunOnline(repeatGrid1D(), []int{0, 74}, plainOracle(), cfg, rand.New(rand.NewSource(41))); err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]int64{
			"al.candidates.evaluated": 75 * iters,
			"al.score.rows":           25 * iters,
			"gp.predict.points":       25 * iters,
		} {
			if got := obs.C(name).Value(); got != want {
				t.Errorf("%s tier: %s = %d, want %d", tier, name, got, want)
			}
		}
	}
}
