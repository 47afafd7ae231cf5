package al

import (
	"sync"

	"repro/internal/intern"
	"repro/internal/mat"
	"repro/internal/obs"
)

// Grid-table metrics (see OBSERVABILITY.md).
var (
	gridHits = obs.C("al.grid.hits")
	grids    = intern.New[*Grid](obs.G("al.grid.entries"))
)

// Grid is a candidate grid of the process-wide grid table: one
// immutable matrix, shared by every holder of a grid with its bits, and
// the index of its distinct points, built once for all of them.
type Grid struct {
	X      *mat.Dense
	sum    uint64
	once   sync.Once
	points *pointIndex
}

// ShareGrid returns the grid of the table with the bits of m and takes
// one reference to it: the one the table already holds, or one on m
// itself when it holds none. Neither m nor the grid's X may be mutated
// afterwards; Release gives the reference back.
func ShareGrid(m *mat.Dense) *Grid {
	sum := hashBits(m.Raw())
	g, hit := grids.Get(sum, func(g *Grid) bool {
		return g.X.Rows() == m.Rows() && g.X.Cols() == m.Cols() && sameBits(g.X.Raw(), m.Raw())
	}, func() *Grid { return &Grid{X: m, sum: sum} })
	if hit {
		gridHits.Inc()
	}
	return g
}

// Release gives back one reference ShareGrid returned; the grid leaves
// the table with its last.
func (g *Grid) Release() { grids.Release(g.sum, g) }

// index returns the point index of the grid, building it on first use.
func (g *Grid) index() *pointIndex {
	g.once.Do(func() { g.points = newPointIndex(g.X) })
	return g.points
}

// UseGrid has the session take the point index of its candidates from
// g, the shared grid they are, instead of building one of its own.
func (s *Session) UseGrid(g *Grid) {
	if g.X != s.candidates {
		panic("al: UseGrid on a grid other than the session's candidates")
	}
	s.points = g.index()
}
