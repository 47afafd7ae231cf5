package al

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/obs"
)

// cacheCheck is a strategy that checks every prediction of a scoring
// pass against PredictBatch of the session's model, bit for bit, then
// selects argmax SD, or, on the passes listed in revisit, the point it
// selected last.
type cacheCheck struct {
	t       *testing.T
	revisit map[int]bool
	passes  int
	last    []float64
}

func (c *cacheCheck) Name() string { return "cache-check" }

func (c *cacheCheck) Select([]Candidate, *rand.Rand) int { panic("cacheCheck needs the model") }

func (c *cacheCheck) SelectWithModel(model Regressor, cands []Candidate, rng *rand.Rand) int {
	xs := mat.New(len(cands), len(cands[0].X))
	for i, cd := range cands {
		copy(xs.RawRow(i), cd.X)
	}
	for i, want := range model.PredictBatch(xs) {
		got := cands[i].Pred
		if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) || math.Float64bits(got.SD) != math.Float64bits(want.SD) {
			c.t.Fatalf("pass %d, row %d: scored %+v, PredictBatch %+v", c.passes, cands[i].Row, got, want)
		}
	}
	c.passes++
	if c.revisit[c.passes] {
		for i, cd := range cands {
			if [2]float64(cd.X) == [2]float64(c.last) {
				return i
			}
		}
		c.t.Fatalf("pass %d: no candidate at %v to revisit", c.passes, c.last)
	}
	sel := VarianceReduction{}.Select(cands, rng)
	c.last = cands[sel].X
	return sel
}

// cacheChainGrid is a 7×7 grid of distinct points tiled twice: 98 rows,
// 49 points, enough for every worker count to split the points.
func cacheChainGrid() *mat.Dense {
	g := mat.New(98, 2)
	for r := 0; r < 98; r++ {
		p := r % 49
		g.Set(r, 0, float64(p%7)/2)
		g.Set(r, 1, float64(p/7)/3)
	}
	return g
}

// runCacheChain drives a session over cacheChainGrid through a chain
// that mixes refits (ReoptimizeEvery 5), bordered updates, a Tell error
// that is retried, two failed Tells that skip a point (the next pass
// rescores the same model), a revisit under a tiny noise floor (its
// bordered pivot is degenerate, so UpdateWithPoint refactorizes), and a
// snapshot restored through JSON into a fresh session. Every pass is
// checked by cacheCheck; it returns the final fingerprint and records.
func runCacheChain(t *testing.T, tier string, workers int) (uint64, []IterationRecord) {
	t.Helper()
	grid := cacheChainGrid()
	strat := &cacheCheck{t: t, revisit: map[int]bool{6: true}}
	cfg := LoopConfig{
		Response: "y", Strategy: strat, Iterations: 30, ReoptimizeEvery: 5,
		NoiseFloor: 1e-10, RetryBudget: 1, ScoreWorkers: workers, Model: tier,
		ModelOptions: ModelOptions{Crossover: 10, ContestCap: 10, Inducing: 8},
	}
	s, err := NewSession(grid, []int{0, 24, 48}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if s.iter == 8 && s.x == nil {
			ck, ok := s.Snapshot()
			if !ok {
				t.Fatal("no snapshot at iteration 8")
			}
			raw, err := json.Marshal(ck)
			if err != nil {
				t.Fatal(err)
			}
			var back Checkpoint
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			if s, err = RestoreSession(grid, cfg, &back); err != nil {
				t.Fatal(err)
			}
		}
		x, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if x == nil {
			break
		}
		if _, dense := UnwrapGP(s.model); !dense && s.kstar != nil {
			t.Fatalf("iteration %d: %s model without a dense backing kept a K* cache", s.iter, tier)
		}
		fail := errors.New("injected failure")
		switch {
		case s.iter == 3 && s.tries == 0, s.iter == 7:
			s.Tell(0, 0, fail)
		default:
			s.Tell(math.Sin(2*x[0])+x[1]*x[1], 1, nil)
		}
	}
	if s.kstar != nil {
		t.Fatal("an ended session kept its K* cache")
	}
	res := s.Result()
	return res.Final.Fingerprint(), res.Records
}

// TestScoreCacheBitIdentical scores chains of updates from the session's
// K* cache and requires every prediction of every pass to equal
// PredictBatch in Float64bits, on the dense tier and on an auto tier
// that crosses over to sparse, with 1, 2, 3, 5 and 7 scorer workers.
// The traces must not depend on the worker count, and the chains must
// reach every path: cached passes, rebuilds, the refactorize fallback,
// a skip and, on the auto tier, sparse passes.
func TestScoreCacheBitIdentical(t *testing.T) {
	counters := []string{"al.score.cached", "al.score.cache_builds", "gp.update.refit", "al.skipped", "gp.automodel.sparse"}
	for _, tier := range []string{ModelDense, ModelAuto} {
		var wantFP uint64
		var wantRecs []IterationRecord
		for _, workers := range []int{1, 2, 3, 5, 7} {
			before := make([]int64, len(counters))
			for i, c := range counters {
				before[i] = obs.C(c).Value()
			}
			fp, recs := runCacheChain(t, tier, workers)
			for i, c := range counters {
				if i == 4 && tier == ModelDense {
					continue
				}
				if obs.C(c).Value() == before[i] {
					t.Errorf("%s, %d workers: the chain never ticked %s", tier, workers, c)
				}
			}
			if workers == 1 {
				wantFP, wantRecs = fp, recs
				continue
			}
			if fp != wantFP || len(recs) != len(wantRecs) {
				t.Fatalf("%s, %d workers: fingerprint %x over %d records, serial %x over %d", tier, workers, fp, len(recs), wantFP, len(wantRecs))
			}
			for i := range recs {
				if recordBits(recs[i]) != recordBits(wantRecs[i]) {
					t.Fatalf("%s, %d workers: record %d = %+v, serial %+v", tier, workers, i, recs[i], wantRecs[i])
				}
			}
		}
	}
}

// recordBits is the bit pattern of a record's floating-point fields.
func recordBits(r IterationRecord) [8]uint64 {
	return [8]uint64{
		uint64(r.Row), math.Float64bits(r.SDChosen), math.Float64bits(r.AMSD),
		math.Float64bits(r.RMSE), math.Float64bits(r.CumCost), math.Float64bits(r.LML),
		math.Float64bits(r.Noise), uint64(r.Train),
	}
}
