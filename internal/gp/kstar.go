package gp

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// KStar caches the cross-covariance between a fixed set of points and
// the training rows of one lineage of dense models: column j holds
// k(p_i, x_j) for every point p_i, and kss holds k(p_i, p_i). A bordered
// UpdateWithPoint keeps the lineage, the kernel and every old training
// row, so after one the cache evaluates only the new row's column
// (u kernel calls for u points instead of u·n) before predicting
// (paper Eqs. 5–6) from the cached columns.
//
// Predict reproduces PredictBatch bit for bit: each lane of a block
// copies the values PredictBatch's kernel calls would have returned,
// in its argument order, and predictBlock finishes the block. The
// columns hold 8 bytes per point and training row; a model holds no
// cache, its caller does.
type KStar struct {
	xs      *mat.Dense // point i is row rows[i] of xs
	rows    []int
	lineage uint64      // lineage the columns were computed for
	train   *mat.Dense  // training rows of the model last predicted
	kss     []float64   // k(p_i, p_i); nil until the first Predict
	cols    [][]float64 // cols[j][i] = k(p_i, x_j)
}

// NewKStar returns an empty cache over the given rows of xs (aliased,
// not copied: the caller must not mutate them); the first Predict fills
// it.
func NewKStar(xs *mat.Dense, rows []int) *KStar { return &KStar{xs: xs, rows: rows} }

// Covers reports whether the cached columns are valid for g: g shares
// the cache's lineage and its leading training rows are, bit for bit,
// the rows the columns were computed from. Predict on a model the
// cache does not cover recomputes every column.
func (c *KStar) Covers(g *GP) bool {
	if c.kss == nil || g.lineage != c.lineage || g.x.Rows() < len(c.cols) {
		return false
	}
	for j := range c.cols {
		for d, v := range c.train.RawRow(j) {
			if math.Float64bits(g.x.At(j, d)) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}

// Predict returns the predictive distribution of g at the points pts
// index (into the rows given to NewKStar), bit-identical to
// g.PredictBatch over those rows. It first evaluates the columns of
// the training rows the cache lacks — all of them when it does not
// cover g — for every point of the cache, so later passes may ask for
// any of them. split runs fn over a partition of [0, n) and returns
// once every part is done; it may run the parts concurrently. A KStar
// is not safe for concurrent Predict calls.
func (c *KStar) Predict(g *GP, pts []int32, split func(n int, fn func(lo, hi int))) []Prediction {
	if c.xs.Cols() != g.x.Cols() {
		panic(fmt.Sprintf("gp: KStar dim %d, model trained on %d", c.xs.Cols(), g.x.Cols()))
	}
	u, n := len(c.rows), g.x.Rows()
	fresh := !c.Covers(g)
	if fresh {
		c.lineage = g.lineage
		c.kss = make([]float64, u)
		c.cols = nil
	}
	from := len(c.cols)
	for j := from; j < n; j++ {
		c.cols = append(c.cols, make([]float64, u))
	}
	c.train = g.x
	if fresh || from < n {
		split(u, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p := c.xs.RawRow(c.rows[i])
				for j := from; j < n; j++ {
					c.cols[j][i] = g.kern.Eval(p, g.x.RawRow(j))
				}
				if fresh {
					c.kss[i] = g.kern.Eval(p, p)
				}
			}
		})
	}

	predictBatches.Inc()
	predictPoints.Add(int64(len(pts)))
	out := make([]Prediction, len(pts))
	split(len(pts), func(lo, hi int) {
		ks := make([]float64, 4*n)
		for base := lo; base < hi; base += 4 {
			live := min(4, hi-base)
			var kss [4]float64
			for r := 0; r < live; r++ {
				i := pts[base+r]
				for j, col := range c.cols {
					ks[4*j+r] = col[i]
				}
				kss[r] = c.kss[i]
			}
			g.predictBlock(out[base:base+live], ks, &kss)
		}
	})
	return out
}
