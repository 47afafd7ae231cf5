package gp

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// TestKStarFollowsLineage pins the cache's validity rule on the gp
// type itself: a bordered update keeps the columns, while a
// factorization at other hyperparameters over the same rows, the
// refactorize fallback of a degenerate border, and a sibling update
// with a different point all rebuild them, and every prediction
// matches PredictBatch bit for bit. On a long chain V = L⁻¹K* grows one
// row per update, several rows at once after unscored updates, and is
// rebuilt on an ancestor of the cached model; a cache whose V budget
// runs out mid-chain drops V and goes on from its columns alone.
func TestKStarFollowsLineage(t *testing.T) {
	grid := mat.New(98, 2)
	for r := 0; r < 98; r++ {
		grid.Set(r, 0, float64(r%7)/2)
		grid.Set(r, 1, float64(r/7)/6)
	}
	all := make([]int, grid.Rows())
	pts := make([]int32, grid.Rows())
	for i := range pts {
		all[i], pts[i] = i, int32(i)
	}
	// split runs three parts concurrently, as a scorer's workers do.
	split := func(n int, fn func(lo, hi int)) {
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				fn(lo, hi)
			}(w*n/3, (w+1)*n/3)
		}
		wg.Wait()
	}
	y := func(x []float64) float64 { return math.Sin(2*x[0]) + x[1]*x[1] }
	rows := []int{0, 10, 20, 30, 40}
	train := mat.New(len(rows), 2)
	for i, r := range rows {
		copy(train.RawRow(i), grid.RawRow(r))
	}
	ys := make([]float64, len(rows))
	for i := range rows {
		ys[i] = y(train.RawRow(i))
	}
	cfg := Config{Kernel: kernel.NewRBF(1, 1), NoiseInit: 1e-9, NoiseFloor: 1e-10, FixedNoise: true}
	g, err := Fit(cfg, train, ys, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache, tight := NewKStar(grid, all), NewKStar(grid, all)
	tight.vRows = 20
	check := func(step string, m *GP, covered bool) {
		t.Helper()
		want := m.PredictBatch(grid)
		for _, c := range []*KStar{cache, tight} {
			if got := c.Covers(m); got != covered {
				t.Fatalf("%s: Covers = %v, want %v", step, got, covered)
			}
			got := c.Predict(m, pts, split)
			for i := range want {
				if math.Float64bits(got[i].Mean) != math.Float64bits(want[i].Mean) || math.Float64bits(got[i].SD) != math.Float64bits(want[i].SD) {
					t.Fatalf("%s (V for %d rows): point %d = %+v, PredictBatch %+v", step, c.vRows, i, got[i], want[i])
				}
			}
		}
	}
	check("fit", g, false)
	check("same model", g, true)
	hyper := g.Kernel().Hyper()
	hyper[0] += 0.25
	cfg.Kernel = kernel.NewRBF(1, 1)
	h, err := FitAtHypers(cfg, train, ys, hyper, g.LogNoise())
	if err != nil {
		t.Fatal(err)
	}
	check("same rows, other hyperparameters", h, false)
	check("back to the first fit", g, false)
	up := func(m *GP, row int) *GP {
		next, err := m.UpdateWithPoint(grid.RawRow(row), y(grid.RawRow(row)))
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	g1 := up(g, 5)
	check("bordered update", g1, true)
	check("sibling update", up(g, 6), false)
	check("back on the first branch", up(g1, 7), false)

	check("other hyperparameters again", h, false)
	before := updateRefit.Value()
	dup := up(h, 0) // row 0 is already trained on: a degenerate border
	if updateRefit.Value() == before {
		t.Fatal("the duplicate point did not take the refactorize fallback")
	}
	check("refactorize fallback", dup, false)
	check("after the fallback", up(dup, 12), true)

	// A 60-update chain under a noise level that keeps every border
	// positive, scored after every update.
	cfg.NoiseInit, cfg.NoiseFloor = 0.05, 0.05
	m, err := Fit(cfg, train, ys, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("chain fit", m, false)
	chain := []*GP{m}
	next := 1
	for len(chain) <= 60 {
		if next%10 != 0 {
			m = up(m, next)
			chain = append(chain, m)
			check(fmt.Sprintf("chain update %d", len(chain)-1), m, true)
		}
		next++
	}
	if cache.v == nil || tight.v != nil {
		t.Fatalf("after 60 updates V is kept: %v within budget, %v past it", cache.v != nil, tight.v != nil)
	}
	// Three updates without a pass in between: the next pass appends
	// three rows of V in order.
	for i := 0; i < 3; i++ {
		m = up(m, next)
		next++
	}
	check("three unscored updates", m, true)
	// An ancestor has fewer training rows than the cache: rebuild.
	check("ancestor", chain[30], false)
	check("descendant of the ancestor", up(chain[30], 97), true)
}
