package gp

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// KStar caches, for a fixed set of points and one lineage of dense
// models, everything of paper Eqs. 5–6 that a bordered update leaves
// valid:
//   - the cross-covariance K*: cols[j][i] = k(p_i, x_j), and kss[i] =
//     k(p_i, p_i);
//   - V = L⁻¹K*: v[j][i] is row j of the forward solve of point i;
//   - vv[i] = Σ_j v[j][i]², summed in ascending j.
//
// A bordered UpdateWithPoint keeps the lineage, the kernel, every old
// training row and every old row of the packed factor, so after one the
// cache evaluates only the new row's column (u kernel calls for u
// points instead of u·n), solves the new row of V from the rows above
// it and adds its squares to vv. A pass then costs O(u·n): the only sum
// over the training rows left is the mean Σ_j k_j α_j, since α changes
// on every update.
//
// V is kept only while it fits in vBudget bytes, vBudget/(8u) training
// rows for u points. Past that the cache drops V and a pass gathers each
// point's cached column and solves it as PredictBatch does, O(u·n²), so
// the memory V adds to a cache is bounded whatever the model's size.
//
// Predict reproduces PredictBatch bit for bit: the columns hold the
// values PredictBatch's kernel calls return, in its argument order, a
// row of V is ForwardSubst4Into's lane arithmetic (mat.ForwardSubstRow),
// and μ and vᵀv are summed in predictBlock's order with products that no
// target fuses. K* and V hold 16 bytes per point and training row; a
// model holds no cache, its caller does.
type KStar struct {
	xs      *mat.Dense // point i is row rows[i] of xs
	rows    []int
	vRows   int         // most training rows V is kept for
	lineage uint64      // lineage the columns were computed for
	train   *mat.Dense  // training rows of the model last predicted
	kss     []float64   // k(p_i, p_i); nil until the first Predict
	cols    [][]float64 // cols[j][i] = k(p_i, x_j)
	v       [][]float64 // v[j][i] = (L⁻¹K*)[j][i]; nil past vRows
	vv      []float64   // vv[i] = Σ_j v[j][i]², ascending j; nil with v
	out     []Prediction
}

// vBudget bounds the bytes of a KStar's V: 512 KiB, 66 training rows
// on the 990 points of the paper's Performance grid.
const vBudget = 512 << 10

// NewKStar returns an empty cache over the given rows of xs (aliased,
// not copied: the caller must not mutate them); the first Predict fills
// it.
func NewKStar(xs *mat.Dense, rows []int) *KStar {
	return &KStar{xs: xs, rows: rows, vRows: vBudget / (8 * max(len(rows), 1))}
}

// Covers reports whether the cached columns are valid for g: g shares
// the cache's lineage and its leading training rows are, bit for bit,
// the rows the columns were computed from. Within a lineage those rows
// determine the leading rows of the factor too, so V is then valid as
// well. Predict on a model the cache does not cover rebuilds it.
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
// g.PredictBatch over those rows. It first extends the cache by the
// training rows it lacks — all of them when it does not cover g — for
// every point of the cache, so later passes may ask for any of them.
// split runs fn over a partition of [0, n) and returns once every part
// is done; it may run the parts concurrently. The returned slice is the
// cache's own and valid until the next Predict. A KStar is not safe for
// concurrent Predict calls.
func (c *KStar) Predict(g *GP, pts []int32, split func(n int, fn func(lo, hi int))) []Prediction {
	if c.xs.Cols() != g.x.Cols() {
		panic(fmt.Sprintf("gp: KStar dim %d, model trained on %d", c.xs.Cols(), g.x.Cols()))
	}
	u, n := len(c.rows), g.x.Rows()
	fresh := !c.Covers(g)
	if fresh {
		c.lineage = g.lineage
		c.kss, c.vv = make([]float64, u), make([]float64, u)
		c.cols, c.v = nil, nil
	}
	if n > c.vRows {
		c.v, c.vv = nil, nil // over budget: solve each pass from here on
	}
	from := len(c.cols)
	for j := from; j < n; j++ {
		c.cols = append(c.cols, make([]float64, u))
		if c.vv != nil {
			c.v = append(c.v, make([]float64, u))
		}
	}
	c.train = g.x
	if from < n {
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
			if c.vv == nil {
				return
			}
			for j := from; j < n; j++ {
				g.chol.ForwardSubstRow(j, c.v, c.cols[j], lo, hi)
				for i, v := range c.v[j][lo:hi] {
					c.vv[lo+i] += float64(v * v)
				}
			}
		})
	}

	predictBatches.Inc()
	predictPoints.Add(int64(len(pts)))
	if cap(c.out) < len(pts) {
		c.out = make([]Prediction, len(pts))
	}
	out := c.out[:len(pts)]
	if c.vv == nil {
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
	split(len(pts), func(lo, hi int) {
		// Mean accumulates μ = Σ_j k_j α_j lane by lane, in ascending j.
		for k := lo; k < hi; k++ {
			out[k].Mean = 0
		}
		for j, a := range g.alpha {
			col := c.cols[j]
			for k := lo; k < hi; k++ {
				out[k].Mean += float64(col[pts[k]] * a)
			}
		}
		for k := lo; k < hi; k++ {
			i := pts[k]
			out[k] = g.prediction(out[k].Mean, c.kss[i], c.vv[i])
		}
	})
	return out
}
