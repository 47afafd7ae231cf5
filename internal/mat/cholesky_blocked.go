package mat

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// defaultBlock is the panel width of the blocked factorization; sized so
// a panel column fits comfortably in L2 cache.
const defaultBlock = 64

// NewCholeskyParallel factorizes a symmetric positive-definite matrix
// with a right-looking blocked algorithm whose trailing-submatrix update
// — the O(n³) bulk of the work — fans out over goroutines. For small
// matrices it falls back to the unblocked kernel. nb ≤ 0 selects the
// default block size.
//
// The result is numerically equivalent to NewCholesky (identical up to
// floating-point reassociation in the trailing updates) and deterministic
// for a fixed block size: each row block is computed independently, so
// goroutine scheduling cannot change the result.
func NewCholeskyParallel(a *Dense, nb int) (*Cholesky, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Cholesky of non-square %dx%d", a.rows, a.cols))
	}
	n := a.rows
	if nb <= 0 {
		nb = defaultBlock
	}
	if n <= 2*nb {
		return NewCholesky(a)
	}
	choleskyCount.Inc()
	choleskyParCount.Inc()
	choleskySize.Observe(float64(n))
	startT := time.Now()
	defer func() { choleskyDur.Observe(time.Since(startT).Seconds()) }()
	// Copy a's lower triangle into packed storage and factorize it in
	// place; the row segments [k, k+kb) a block step touches stay
	// contiguous.
	c := &Cholesky{n: n, data: make([]float64, packedLen(n))}
	for i := 0; i < n; i++ {
		copy(c.row(i), a.data[i*n:i*n+i+1])
	}
	workers := runtime.GOMAXPROCS(0)

	for k := 0; k < n; k += nb {
		kb := nb
		if k+kb > n {
			kb = n - k
		}
		// 1. Unblocked factorization of the diagonal block A[k:k+kb, k:k+kb].
		for i := k; i < k+kb; i++ {
			ri := c.row(i)
			for j := k; j <= i; j++ {
				rj := c.row(j)
				s := ri[j]
				for t := k; t < j; t++ {
					s -= float64(ri[t] * rj[t])
				}
				if i == j {
					if s <= 0 || math.IsNaN(s) {
						return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotPositiveDefinite, i, s)
					}
					ri[i] = math.Sqrt(s)
				} else {
					ri[j] = s / rj[j]
				}
			}
		}
		if k+kb >= n {
			break
		}
		// 2. Panel solve: L21 = A21 L11⁻ᵀ, parallel over row chunks.
		parRows(workers, k+kb, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ri := c.row(i)
				for j := k; j < k+kb; j++ {
					rj := c.row(j)
					s := ri[j]
					for t := k; t < j; t++ {
						s -= float64(ri[t] * rj[t])
					}
					ri[j] = s / rj[j]
				}
			}
		})
		// 3. Trailing update: A22 -= L21 L21ᵀ (lower triangle only),
		// parallel over row chunks — the dominant cost.
		parRows(workers, k+kb, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ri := c.row(i)
				li := ri[k : k+kb]
				for j := k + kb; j <= i; j++ {
					lj := c.row(j)[k : k+kb]
					var s float64
					for t := 0; t < kb; t++ {
						s += float64(li[t] * lj[t])
					}
					ri[j] -= s
				}
			}
		})
	}
	return c, nil
}

// parRows splits rows [lo, hi) across workers. Trailing updates cost more
// for later rows (longer inner loops), so rows are dealt in strides to
// balance load.
func parRows(workers, lo, hi int, fn func(lo, hi int)) {
	nRows := hi - lo
	if workers < 2 || nRows < 64 {
		fn(lo, hi)
		return
	}
	if workers > nRows {
		workers = nRows
	}
	chunk := (nRows + workers - 1) / workers
	var wg sync.WaitGroup
	for s := lo; s < hi; s += chunk {
		e := s + chunk
		if e > hi {
			e = hi
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			fn(s, e)
		}(s, e)
	}
	wg.Wait()
}
