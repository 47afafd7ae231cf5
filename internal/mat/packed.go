package mat

import (
	"fmt"
	"math"
)

// TriPacked is a lower-triangular Cholesky factor in packed row-major
// storage: row i occupies data[i(i+1)/2 : i(i+1)/2+i+1]. Compared to the
// square Dense storage a Cholesky carries, packing halves the memory of
// every stored factor — and, more importantly, halves the allocation of
// every bordered Extended update, which clones the whole factor because
// fitted models are immutable snapshots (see the gp concurrency
// contract). All methods treat the receiver as read-only; Extended
// returns a new factor.
type TriPacked struct {
	n    int
	data []float64
}

// packedLen returns the packed storage size for an n×n lower triangle.
func packedLen(n int) int { return n * (n + 1) / 2 }

// PackCholesky copies the lower triangle of a Cholesky factor into
// packed storage.
func PackCholesky(c *Cholesky) *TriPacked {
	n := c.n
	t := &TriPacked{n: n, data: make([]float64, packedLen(n))}
	for i := 0; i < n; i++ {
		copy(t.row(i), c.l.data[i*n:i*n+i+1])
	}
	return t
}

// row returns row i (length i+1), aliased.
func (t *TriPacked) row(i int) []float64 {
	off := i * (i + 1) / 2
	return t.data[off : off+i+1]
}

// Size returns the order n of the factorized matrix.
func (t *TriPacked) Size() int { return t.n }

// At returns L[i,j] (zero above the diagonal).
func (t *TriPacked) At(i, j int) float64 {
	if i < 0 || i >= t.n || j < 0 || j >= t.n {
		panic(fmt.Sprintf("mat: TriPacked index (%d,%d) out of bounds %d", i, j, t.n))
	}
	if j > i {
		return 0
	}
	return t.data[i*(i+1)/2+j]
}

// Unpack materializes the factor as a square lower-triangular Dense.
func (t *TriPacked) Unpack() *Dense {
	l := New(t.n, t.n)
	for i := 0; i < t.n; i++ {
		copy(l.data[i*t.n:i*t.n+i+1], t.row(i))
	}
	return l
}

// ForwardSubstInto solves L·y = b into dst (len n). dst must not alias b.
func (t *TriPacked) ForwardSubstInto(dst, b Vec) {
	if len(b) != t.n || len(dst) != t.n {
		panic(fmt.Sprintf("mat: TriPacked ForwardSubst lengths %d,%d != %d", len(dst), len(b), t.n))
	}
	for i := 0; i < t.n; i++ {
		row := t.row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * dst[k]
		}
		dst[i] = s / row[i]
	}
}

// ForwardSubst4Into solves L·y = b for four right-hand sides in one
// pass over L. b and dst hold the four vectors interleaved: element i
// of lane r is at index 4i+r, so both have length 4n. Each element of
// L is loaded once and feeds four independent accumulator chains, and
// each lane performs exactly the operations of ForwardSubstInto in the
// same order, so lane r of dst is bit-identical to ForwardSubstInto on
// lane r of b. dst may be b itself (the solve then runs in place) but
// must not otherwise overlap it.
func (t *TriPacked) ForwardSubst4Into(dst, b []float64) {
	if len(b) != 4*t.n || len(dst) != 4*t.n {
		panic(fmt.Sprintf("mat: TriPacked ForwardSubst4 lengths %d,%d != 4·%d", len(dst), len(b), t.n))
	}
	for i := 0; i < t.n; i++ {
		row := t.row(i)
		s0, s1, s2, s3 := b[4*i], b[4*i+1], b[4*i+2], b[4*i+3]
		y := dst[:4*i]
		j := 0
		for _, l := range row[:i] {
			yj := y[j : j+4 : j+4]
			s0 -= l * yj[0]
			s1 -= l * yj[1]
			s2 -= l * yj[2]
			s3 -= l * yj[3]
			j += 4
		}
		d := row[i]
		dst[4*i], dst[4*i+1], dst[4*i+2], dst[4*i+3] = s0/d, s1/d, s2/d, s3/d
	}
}

// ForwardSubst solves L·y = b and returns y.
func (t *TriPacked) ForwardSubst(b Vec) Vec {
	y := make(Vec, t.n)
	t.ForwardSubstInto(y, b)
	return y
}

// BackSubstTInPlace solves Lᵀ·x = y in place.
func (t *TriPacked) BackSubstTInPlace(y Vec) {
	if len(y) != t.n {
		panic(fmt.Sprintf("mat: TriPacked BackSubstT length %d != %d", len(y), t.n))
	}
	for i := t.n - 1; i >= 0; i-- {
		row := t.row(i)
		y[i] /= row[i]
		yi := y[i]
		for k := 0; k < i; k++ {
			y[k] -= row[k] * yi
		}
	}
}

// SolveVec solves A·x = b (A = L·Lᵀ) and returns x in one allocation.
func (t *TriPacked) SolveVec(b Vec) Vec {
	x := make(Vec, t.n)
	t.ForwardSubstInto(x, b)
	t.BackSubstTInPlace(x)
	return x
}

// QuadForm returns bᵀ A⁻¹ b = |L⁻¹b|².
func (t *TriPacked) QuadForm(b Vec) float64 {
	y := t.ForwardSubst(b)
	return Dot(y, y)
}

// LogDet returns log det A = 2 Σ log L_ii.
func (t *TriPacked) LogDet() float64 {
	var s float64
	for i := 0; i < t.n; i++ {
		s += math.Log(t.data[i*(i+1)/2+i])
	}
	return 2 * s
}

// ForwardSubstMat solves L·Y = B column by column.
func (t *TriPacked) ForwardSubstMat(b *Dense) *Dense {
	if b.rows != t.n {
		panic(fmt.Sprintf("mat: TriPacked ForwardSubstMat rows %d != %d", b.rows, t.n))
	}
	y := New(b.rows, b.cols)
	col := make(Vec, b.rows)
	sol := make(Vec, b.rows)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < b.rows; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		t.ForwardSubstInto(sol, col)
		for i := 0; i < b.rows; i++ {
			y.data[i*b.cols+j] = sol[i]
		}
	}
	return y
}

// Inverse returns A⁻¹ as a dense matrix by solving against the identity.
func (t *TriPacked) Inverse() *Dense {
	x := New(t.n, t.n)
	e := make(Vec, t.n)
	col := make(Vec, t.n)
	for j := 0; j < t.n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		t.ForwardSubstInto(col, e)
		t.BackSubstTInPlace(col)
		for i := 0; i < t.n; i++ {
			x.data[i*t.n+j] = col[i]
		}
	}
	return x
}

// Extended returns the packed Cholesky factor of the bordered matrix
//
//	[ A  b ]
//	[ bᵀ c ]
//
// in O(n²): the packed prefix is byte-identical to the receiver (one
// bulk copy), the new row is L⁻¹b solved directly into the new storage,
// and the new pivot is √(c − |L⁻¹b|²). The single allocation is
// (n+1)(n+2)/2 floats — half the (n+1)² a square-factor border costs —
// which is what keeps the AL loop's incremental model update under the
// B/op gate in BENCH_baseline.json. Returns ErrNotPositiveDefinite when
// the bordered matrix is not SPD.
func (t *TriPacked) Extended(b Vec, diag float64) (*TriPacked, error) {
	if len(b) != t.n {
		panic(fmt.Sprintf("mat: TriPacked Extended border length %d != %d", len(b), t.n))
	}
	choleskyExtendCount.Inc()
	n := t.n
	out := &TriPacked{n: n + 1, data: make([]float64, packedLen(n+1))}
	copy(out.data, t.data)
	row := out.data[packedLen(n) : packedLen(n)+n]
	// Forward-substitute L·row = b using the shared packed prefix.
	for i := 0; i < n; i++ {
		lrow := t.row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= lrow[k] * row[k]
		}
		row[i] = s / lrow[i]
	}
	pivot := diag - Dot(row, row)
	if pivot <= 0 || math.IsNaN(pivot) {
		return nil, fmt.Errorf("%w: bordered pivot = %g", ErrNotPositiveDefinite, pivot)
	}
	out.data[packedLen(n+1)-1] = math.Sqrt(pivot)
	return out, nil
}
