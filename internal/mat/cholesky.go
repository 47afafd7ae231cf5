package mat

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
)

// Factorization metrics: every Cholesky — the O(n³) inner kernel of each
// GP fit, LML evaluation and refit — counts itself, so the AL loop's
// linear-algebra bill is visible end to end (see OBSERVABILITY.md).
var (
	choleskyCount    = obs.C("mat.cholesky.count")
	choleskyDur      = obs.T("mat.cholesky.duration")
	choleskySize     = obs.H("mat.cholesky.size", 16, 64, 256, 1024, 4096)
	choleskyParCount = obs.C("mat.cholesky.parallel.count")
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization
// encounters a non-positive pivot.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric
// positive-definite matrix A = L·Lᵀ.
type Cholesky struct {
	l *Dense // lower triangular, upper strictly zero
	n int
}

// NewCholesky factorizes the symmetric positive-definite matrix a.
// Only the lower triangle of a is read. It returns
// ErrNotPositiveDefinite if a pivot is not strictly positive.
func NewCholesky(a *Dense) (*Cholesky, error) {
	return NewCholeskyInto(new(Cholesky), a)
}

// NewCholeskyInto is NewCholesky factorizing into dst, whose factor
// storage is reused when it already has the order of a. It returns dst,
// or nil and the error; after an error dst may be passed again.
func NewCholeskyInto(dst *Cholesky, a *Dense) (*Cholesky, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Cholesky of non-square %dx%d", a.rows, a.cols))
	}
	n := a.rows
	choleskyCount.Inc()
	choleskySize.Observe(float64(n))
	start := time.Now()
	defer func() { choleskyDur.Observe(time.Since(start).Seconds()) }()
	if dst.l == nil || dst.l.rows != n || dst.l.cols != n {
		dst.l = New(n, n)
	}
	dst.n = n
	l := dst.l
	for i := 0; i < n; i++ {
		lrow := l.data[i*n : (i+1)*n]
		clear(lrow[i+1:]) // upper strictly zero, whatever dst held before
		for j := 0; j <= i; j++ {
			s := a.data[i*n+j]
			ljrow := l.data[j*n : (j+1)*n]
			for k := 0; k < j; k++ {
				s -= lrow[k] * ljrow[k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotPositiveDefinite, i, s)
				}
				lrow[j] = math.Sqrt(s)
			} else {
				lrow[j] = s / ljrow[j]
			}
		}
	}
	return dst, nil
}

// NewCholeskyJitter factorizes a, retrying with exponentially growing
// diagonal jitter when a is numerically indefinite (the standard
// Gaussian-process trick for nearly singular covariance matrices).
// It returns the factorization and the jitter that was finally added.
func NewCholeskyJitter(a *Dense, initial float64, maxTries int) (*Cholesky, float64, error) {
	ch, err := NewCholesky(a)
	if err == nil {
		return ch, 0, nil
	}
	jitter := initial
	if jitter <= 0 {
		jitter = 1e-10 * maxDiag(a)
		if jitter == 0 {
			jitter = 1e-10
		}
	}
	for try := 0; try < maxTries; try++ {
		b := a.Clone()
		b.AddDiag(jitter)
		ch, err = NewCholesky(b)
		if err == nil {
			return ch, jitter, nil
		}
		jitter *= 10
	}
	return nil, jitter, fmt.Errorf("mat: Cholesky failed after %d jitter retries (last jitter %g): %w",
		maxTries, jitter/10, err)
}

func maxDiag(a *Dense) float64 {
	var mx float64
	for i := 0; i < a.rows; i++ {
		if v := math.Abs(a.data[i*a.cols+i]); v > mx {
			mx = v
		}
	}
	return mx
}

// Size returns the order n of the factorized matrix.
func (c *Cholesky) Size() int { return c.n }

// L returns the lower-triangular factor, aliased (do not mutate).
func (c *Cholesky) L() *Dense { return c.l }

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
	forwardSubstInPlace(c.l, dst, 0)
	backSubstTInPlace(c.l, dst)
	return dst
}

// Solve solves A·X = B column-by-column and returns X.
func (c *Cholesky) Solve(b *Dense) *Dense {
	if b.rows != c.n {
		panic(fmt.Sprintf("mat: Cholesky Solve rows %d != %d", b.rows, c.n))
	}
	x := New(b.rows, b.cols)
	col := make(Vec, c.n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < c.n; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		sol := c.SolveVec(col)
		for i := 0; i < c.n; i++ {
			x.data[i*b.cols+j] = sol[i]
		}
	}
	return x
}

// LogDet returns log det A = 2 Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l.data[i*c.n+i])
	}
	return 2 * s
}

// Inverse returns A⁻¹ as a dense matrix. Prefer SolveVec when only products
// with A⁻¹ are needed; the explicit inverse is used by the LML gradient.
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
		forwardSubstInPlace(c.l, x, j)
		backSubstTInPlace(c.l, x)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			dst.data[i*n+j], dst.data[j*n+i] = dst.data[j*n+i], dst.data[i*n+j]
		}
	}
	return dst
}

// QuadForm returns bᵀ A⁻¹ b.
func (c *Cholesky) QuadForm(b Vec) float64 {
	y := ForwardSubst(c.l, b) // A = L Lᵀ ⇒ bᵀA⁻¹b = |L⁻¹ b|²
	return Dot(y, y)
}

// Extended returns the Cholesky factor of the bordered matrix
//
//	[ A  b ]
//	[ bᵀ c ]
//
// in O(n²) instead of refactorizing in O(n³): the new row of L is
// L⁻¹b and the new pivot is √(c − |L⁻¹b|²). This is the incremental
// update that makes online GP conditioning cheap between hyperparameter
// refits. Returns ErrNotPositiveDefinite when the bordered matrix is not
// SPD.
func (c *Cholesky) Extended(b Vec, diag float64) (*Cholesky, error) {
	if len(b) != c.n {
		panic(fmt.Sprintf("mat: Extended border length %d != %d", len(b), c.n))
	}
	choleskyExtendCount.Inc()
	row := ForwardSubst(c.l, b)
	pivot := diag - Dot(row, row)
	if pivot <= 0 || math.IsNaN(pivot) {
		return nil, fmt.Errorf("%w: bordered pivot = %g", ErrNotPositiveDefinite, pivot)
	}
	n := c.n + 1
	l := New(n, n)
	for i := 0; i < c.n; i++ {
		copy(l.data[i*n:i*n+c.n], c.l.data[i*c.n:i*c.n+c.n])
	}
	copy(l.data[(n-1)*n:(n-1)*n+c.n], row)
	l.data[n*n-1] = math.Sqrt(pivot)
	return &Cholesky{l: l, n: n}, nil
}
