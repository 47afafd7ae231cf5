package mat

import (
	"fmt"
	"math"
)

// forwardSubstInPlace overwrites y with the solution of L·x = y. The
// caller guarantees y[:from] is zero; since L is nonsingular the
// solution is zero there too, so the solve starts at row from and sums
// only columns ≥ from. For a factor with finite entries the skipped
// terms are all ±0 and would not change a single bit of the result.
func (c *Cholesky) forwardSubstInPlace(y Vec, from int) {
	for i := from; i < c.n; i++ {
		row := c.row(i)
		s := y[i]
		for k, v := range row[from:i] {
			s -= float64(v * y[from+k])
		}
		y[i] = s / row[i]
	}
}

// ForwardSubstInto solves L·y = b into dst (len n). dst may alias b.
func (c *Cholesky) ForwardSubstInto(dst, b Vec) {
	if len(b) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("mat: Cholesky ForwardSubst lengths %d,%d != %d", len(dst), len(b), c.n))
	}
	copy(dst, b)
	c.forwardSubstInPlace(dst, 0)
}

// ForwardSubst solves L·y = b and returns y.
func (c *Cholesky) ForwardSubst(b Vec) Vec {
	y := make(Vec, c.n)
	c.ForwardSubstInto(y, b)
	return y
}

// ForwardSubst4Into solves L·y = b for four right-hand sides in one
// pass over L. b and dst hold the four vectors interleaved: element i
// of lane r is at index 4i+r, so both have length 4n. Each element of
// L is loaded once and feeds four independent accumulator chains, and
// each lane performs exactly the operations of ForwardSubstInto in the
// same order, so lane r of dst is bit-identical to ForwardSubstInto on
// lane r of b. dst may be b itself (the solve then runs in place) but
// must not otherwise overlap it.
func (c *Cholesky) ForwardSubst4Into(dst, b []float64) {
	if len(b) != 4*c.n || len(dst) != 4*c.n {
		panic(fmt.Sprintf("mat: Cholesky ForwardSubst4 lengths %d,%d != 4·%d", len(dst), len(b), c.n))
	}
	for i := 0; i < c.n; i++ {
		row := c.row(i)
		s0, s1, s2, s3 := b[4*i], b[4*i+1], b[4*i+2], b[4*i+3]
		y := dst[:4*i]
		j := 0
		for _, l := range row[:i] {
			yj := y[j : j+4 : j+4]
			s0 -= float64(l * yj[0])
			s1 -= float64(l * yj[1])
			s2 -= float64(l * yj[2])
			s3 -= float64(l * yj[3])
			j += 4
		}
		d := row[i]
		dst[4*i], dst[4*i+1], dst[4*i+2], dst[4*i+3] = s0/d, s1/d, s2/d, s3/d
	}
}

// ForwardSubstRow computes row j of Y = L⁻¹B for right-hand sides held
// row by row: b is row j of B, y[l] is row l of Y for every l < j, and
// lane i of a row is its element i. It fills y[j][lo:hi] and reads only
// lanes [lo, hi) of b and the earlier rows, so disjoint lane ranges may
// run concurrently. Each lane performs exactly the operations of
// ForwardSubstInto on row j — s -= L_jl·y_l in ascending l, then s/L_jj —
// so after rows 0..j lane i of Y is bit-identical to ForwardSubstInto on
// column i of B, however the rows were spread over calls.
func (c *Cholesky) ForwardSubstRow(j int, y [][]float64, b []float64, lo, hi int) {
	if j >= c.n || len(y) <= j || len(b) < hi || len(y[j]) < hi {
		panic(fmt.Sprintf("mat: Cholesky ForwardSubstRow row %d of %d, lanes [%d,%d) of %d", j, c.n, lo, hi, len(b)))
	}
	row := c.row(j)
	dst := y[j][lo:hi]
	copy(dst, b[lo:hi])
	for l, v := range row[:j] {
		src := y[l][lo:hi]
		src = src[:len(dst)]
		for i := range dst {
			dst[i] -= float64(v * src[i])
		}
	}
	d := row[j]
	for i := range dst {
		dst[i] /= d
	}
}

// ForwardSubstMat solves L·Y = B column by column.
func (c *Cholesky) ForwardSubstMat(b *Dense) *Dense {
	if b.rows != c.n {
		panic(fmt.Sprintf("mat: Cholesky ForwardSubstMat rows %d != %d", b.rows, c.n))
	}
	y := New(b.rows, b.cols)
	col := make(Vec, b.rows)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < b.rows; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		c.forwardSubstInPlace(col, 0)
		for i := 0; i < b.rows; i++ {
			y.data[i*b.cols+j] = col[i]
		}
	}
	return y
}

// BackSubstTInPlace solves Lᵀ·x = y in place.
func (c *Cholesky) BackSubstTInPlace(y Vec) {
	if len(y) != c.n {
		panic(fmt.Sprintf("mat: Cholesky BackSubstT length %d != %d", len(y), c.n))
	}
	for i := c.n - 1; i >= 0; i-- {
		row := c.row(i)
		y[i] /= row[i]
		yi := y[i]
		// Subtract column i of Lᵀ (= row entries L[i][0..i-1] transposed).
		for k, v := range row[:i] {
			y[k] -= float64(v * yi)
		}
	}
}

// SolveVec solves A·x = b and returns x.
func (c *Cholesky) SolveVec(b Vec) Vec {
	return c.SolveVecInto(make(Vec, c.n), b)
}

// SolveVecInto is SolveVec writing x into dst (len n, may alias b); it
// returns dst.
func (c *Cholesky) SolveVecInto(dst, b Vec) Vec {
	if len(b) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("mat: Cholesky SolveVec lengths dst %d, b %d != %d", len(dst), len(b), c.n))
	}
	copy(dst, b)
	c.forwardSubstInPlace(dst, 0)
	c.BackSubstTInPlace(dst)
	return dst
}

// QuadForm returns bᵀ A⁻¹ b = |L⁻¹b|².
func (c *Cholesky) QuadForm(b Vec) float64 {
	y := c.ForwardSubst(b)
	return Dot(y, y)
}

// LogDet returns log det A = 2 Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.data[i*(i+1)/2+i])
	}
	return 2 * s
}

// Inverse returns A⁻¹ as a dense matrix. Prefer SolveVec when only products
// with A⁻¹ are needed; the explicit inverse is used by the LML gradient
// and LOOCV.
func (c *Cholesky) Inverse() *Dense {
	return c.InverseInto(New(c.n, c.n))
}

// InverseInto is Inverse writing into dst (n x n); it returns dst. Column
// j of A⁻¹ is the solution of A·x = e_j, computed with the same
// operations as SolveVec(e_j) in row j of dst and then transposed into
// place, so no scratch is needed. The forward solve starts at row j:
// above it e_j and the solution are exactly zero.
func (c *Cholesky) InverseInto(dst *Dense) *Dense {
	n := c.n
	if dst.rows != n || dst.cols != n {
		panic(fmt.Sprintf("mat: InverseInto %dx%d, want %dx%d", dst.rows, dst.cols, n, n))
	}
	for j := 0; j < n; j++ {
		x := dst.data[j*n : (j+1)*n]
		clear(x)
		x[j] = 1
		c.forwardSubstInPlace(x, j)
		c.BackSubstTInPlace(x)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			dst.data[i*n+j], dst.data[j*n+i] = dst.data[j*n+i], dst.data[i*n+j]
		}
	}
	return dst
}
