package mat

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Rank-one factor maintenance metrics: the incremental GP conditioning
// path replaces full O(n³) refactorizations with these O(n²) kernels, so
// counting them next to mat.cholesky.count makes the refit/update ratio
// visible in -metrics output (see OBSERVABILITY.md).
var (
	choleskyRank1Count  = obs.C("mat.cholesky.rank1.count")
	choleskyExtendCount = obs.C("mat.cholesky.extend.count")
)

// Extended returns the Cholesky factor of the bordered matrix
//
//	[ A  b ]
//	[ bᵀ c ]
//
// in O(n²) instead of refactorizing in O(n³): the packed prefix is
// byte-identical to the receiver (one bulk copy), the new row is L⁻¹b
// solved directly into the new storage, and the new pivot is
// √(c − |L⁻¹b|²). This is the incremental update that makes online GP
// conditioning cheap between hyperparameter refits; its single
// allocation of (n+1)(n+2)/2 floats is what keeps the AL loop's
// incremental model update under the B/op gate in BENCH_baseline.json.
// Returns ErrNotPositiveDefinite when the bordered matrix is not SPD.
func (c *Cholesky) Extended(b Vec, diag float64) (*Cholesky, error) {
	if len(b) != c.n {
		panic(fmt.Sprintf("mat: Extended border length %d != %d", len(b), c.n))
	}
	choleskyExtendCount.Inc()
	n := c.n
	out := &Cholesky{n: n + 1, data: make([]float64, packedLen(n+1))}
	copy(out.data, c.data)
	row := out.data[packedLen(n) : packedLen(n)+n]
	copy(row, b)
	c.forwardSubstInPlace(row, 0)
	pivot := diag - Dot(row, row)
	if pivot <= 0 || math.IsNaN(pivot) {
		return nil, fmt.Errorf("%w: bordered pivot = %g", ErrNotPositiveDefinite, pivot)
	}
	out.data[packedLen(n+1)-1] = math.Sqrt(pivot)
	return out, nil
}

// RankOneUpdate returns the Cholesky factor of A + v·vᵀ given the factor
// of A, in O(n²) via a sweep of Givens rotations (LINPACK dchud). The
// receiver is not modified. A + v·vᵀ is always SPD when A is, so the
// update cannot fail.
func (c *Cholesky) RankOneUpdate(v Vec) *Cholesky {
	if len(v) != c.n {
		panic(fmt.Sprintf("mat: RankOneUpdate length %d != %d", len(v), c.n))
	}
	choleskyRank1Count.Inc()
	out := c.clone()
	d := out.data
	w := append(Vec(nil), v...)
	for k := 0; k < c.n; k++ {
		lkk := d[packedLen(k)+k]
		r := math.Hypot(lkk, w[k])
		cc := r / lkk
		s := w[k] / lkk
		d[packedLen(k)+k] = r
		for i := k + 1; i < c.n; i++ {
			ik := packedLen(i) + k
			lik := (d[ik] + float64(s*w[i])) / cc
			w[i] = float64(cc*w[i]) - float64(s*lik)
			d[ik] = lik
		}
	}
	return out
}

// RankOneDowndate returns the Cholesky factor of A − v·vᵀ given the
// factor of A, in O(n²) via hyperbolic rotations (LINPACK dchdd). The
// receiver is not modified. It returns ErrNotPositiveDefinite when the
// downdated matrix is not SPD — removing v may destroy positive
// definiteness, unlike the update direction.
func (c *Cholesky) RankOneDowndate(v Vec) (*Cholesky, error) {
	if len(v) != c.n {
		panic(fmt.Sprintf("mat: RankOneDowndate length %d != %d", len(v), c.n))
	}
	choleskyRank1Count.Inc()
	out := c.clone()
	d := out.data
	w := append(Vec(nil), v...)
	for k := 0; k < c.n; k++ {
		lkk := d[packedLen(k)+k]
		r2 := float64(lkk*lkk) - float64(w[k]*w[k])
		if r2 <= 0 || math.IsNaN(r2) {
			return nil, fmt.Errorf("%w: downdate pivot %d² = %g", ErrNotPositiveDefinite, k, r2)
		}
		r := math.Sqrt(r2)
		cc := r / lkk
		s := w[k] / lkk
		d[packedLen(k)+k] = r
		for i := k + 1; i < c.n; i++ {
			ik := packedLen(i) + k
			lik := (d[ik] - float64(s*w[i])) / cc
			w[i] = float64(cc*w[i]) - float64(s*lik)
			d[ik] = lik
		}
	}
	return out, nil
}

// clone returns a copy of the factor with its own storage.
func (c *Cholesky) clone() *Cholesky {
	return &Cholesky{n: c.n, data: append([]float64(nil), c.data...)}
}
