package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro"
	"repro/internal/serve"
)

// grid is a candidate grid with the exact answer for every point: the
// stand-in for running the experiment a campaign suggests.
type grid struct {
	points  [][]float64
	y, cost []float64
	rowOf   map[string]int // bit-exact point → first row holding it
	lo, hi  []float64      // bounding box
}

func newGrid(points [][]float64, y, cost []float64) *grid {
	g := &grid{points: points, y: y, cost: cost, rowOf: make(map[string]int, len(points))}
	dims := len(points[0])
	g.lo = append([]float64(nil), points[0]...)
	g.hi = append([]float64(nil), points[0]...)
	for i := len(points) - 1; i >= 0; i-- {
		g.rowOf[pointKey(points[i])] = i
		for d := 0; d < dims; d++ {
			g.lo[d] = math.Min(g.lo[d], points[i][d])
			g.hi[d] = math.Max(g.hi[d], points[i][d])
		}
	}
	return g
}

func pointKey(x []float64) string {
	var b strings.Builder
	for _, v := range x {
		b.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
		b.WriteByte(',')
	}
	return b.String()
}

// answer looks the suggested point up on the grid. Points that appear in
// several rows (the full grid repeats configurations across operators)
// answer with the first row, so an answer depends on the point alone.
func (g *grid) answer(x []float64) (float64, float64, error) {
	i, ok := g.rowOf[pointKey(x)]
	if !ok {
		return 0, 0, fmt.Errorf("suggested point %v is not on the candidate grid", x)
	}
	return g.y[i], g.cost[i], nil
}

// offGrid draws a uniform point inside the grid's bounding box. Its
// coordinates are continuous, so it is never a grid point and never
// repeats.
func (g *grid) offGrid(rng *rand.Rand) []float64 {
	x := make([]float64, len(g.lo))
	for d := range x {
		x[d] = g.lo[d] + rng.Float64()*(g.hi[d]-g.lo[d])
	}
	return x
}

// performanceGrid builds the candidate grid from the paper's Performance
// dataset (fixed dataset seed: the workload seed varies the campaigns, not
// the machine being modelled): all 3246 jobs, x = (log10 size, log2 NP,
// frequency), y = log10 runtime_s.
func performanceGrid() (*grid, error) {
	ds, err := repro.GeneratePerformanceDataset(1)
	if err != nil {
		return nil, err
	}
	n := ds.Len()
	pts := make([][]float64, n)
	y := make([]float64, n)
	cost := make([]float64, n)
	for i := 0; i < n; i++ {
		r := ds.Row(i) // size, NP, frequency
		pts[i] = []float64{math.Log10(r[0]), math.Log2(r[1]), r[2]}
		y[i] = math.Log10(ds.RespAt(repro.RespRuntime, i))
		cost[i] = ds.CostAt(i)
	}
	return newGrid(pts, y, cost), nil
}

// campaignSpec is a client-sourced campaign over g with seeds distinct
// seed rows, all drawn from rng.
func campaignSpec(rng *rand.Rand, g *grid, name, strategy string, seeds, iterations, reoptimizeEvery int) serve.CampaignSpec {
	return serve.CampaignSpec{
		Name:            name,
		Source:          "client",
		Candidates:      g.points,
		Seeds:           rng.Perm(len(g.points))[:seeds],
		Strategy:        strategy,
		Iterations:      iterations,
		ReoptimizeEvery: reoptimizeEvery,
		Seed:            1 + rng.Int63n(1<<31),
	}
}
