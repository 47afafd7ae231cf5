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
// positive-definite matrix A = L·Lᵀ in packed row-major storage: row i
// occupies data[i(i+1)/2 : i(i+1)/2+i+1]. Packing halves the memory of
// every stored factor and of every bordered Extended update, which
// copies the whole factor because fitted models are immutable snapshots
// (see the gp concurrency contract). All methods treat the receiver as
// read-only; Extended and the rank-one updates return a new factor.
//
// Every product-accumulate in the factor kernels is written
// s -= float64(a*b): the explicit conversion rounds the product, so no
// target fuses it into an FMA and the bits match on every architecture.
type Cholesky struct {
	n    int
	data []float64
}

// packedLen returns the packed storage size for an n×n lower triangle.
func packedLen(n int) int { return n * (n + 1) / 2 }

// row returns row i (length i+1), aliased.
func (c *Cholesky) row(i int) []float64 {
	off := i * (i + 1) / 2
	return c.data[off : off+i+1]
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
	if len(dst.data) != packedLen(n) {
		dst.data = make([]float64, packedLen(n))
	}
	dst.n = n
	for i := 0; i < n; i++ {
		lrow := dst.row(i)
		for j := 0; j <= i; j++ {
			s := a.data[i*n+j]
			ljrow := dst.row(j)
			for k := 0; k < j; k++ {
				s -= float64(lrow[k] * ljrow[k])
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

// At returns L[i,j] (zero above the diagonal).
func (c *Cholesky) At(i, j int) float64 {
	if i < 0 || i >= c.n || j < 0 || j >= c.n {
		panic(fmt.Sprintf("mat: Cholesky index (%d,%d) out of bounds %d", i, j, c.n))
	}
	if j > i {
		return 0
	}
	return c.data[i*(i+1)/2+j]
}

// Unpack materializes the factor as a square lower-triangular Dense.
func (c *Cholesky) Unpack() *Dense {
	l := New(c.n, c.n)
	for i := 0; i < c.n; i++ {
		copy(l.data[i*c.n:i*c.n+i+1], c.row(i))
	}
	return l
}
