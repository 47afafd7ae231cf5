package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestPackCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 33} {
		a := randomSPD(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		p := PackCholesky(c)
		if p.Size() != n {
			t.Fatalf("n=%d: packed size %d", n, p.Size())
		}
		l := c.L()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if j <= i {
					want = l.At(i, j)
				}
				if got := p.At(i, j); got != want {
					t.Fatalf("n=%d: packed L[%d,%d] = %g, dense %g", n, i, j, got, want)
				}
			}
		}
		matricesEqual(t, p.Unpack(), lowerTriangle(l), 0)
	}
}

// lowerTriangle zeroes the strict upper triangle (Cholesky keeps scratch
// values there).
func lowerTriangle(l *Dense) *Dense {
	out := New(l.Rows(), l.Cols())
	for i := 0; i < l.Rows(); i++ {
		for j := 0; j <= i; j++ {
			out.Set(i, j, l.At(i, j))
		}
	}
	return out
}

// TestTriPackedMatchesCholesky pins every solve/determinant/inverse
// method of the packed factor to the square Cholesky it was packed from:
// identical inputs, bit-identical or near-identical outputs.
func TestTriPackedMatchesCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 19
	a := randomSPD(rng, n)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	p := PackCholesky(c)

	b := make(Vec, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got, want := p.SolveVec(b), c.SolveVec(b)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("SolveVec[%d]: packed %g, dense %g", i, got[i], want[i])
		}
	}
	if g, w := p.QuadForm(b), c.QuadForm(b); g != w {
		t.Fatalf("QuadForm: packed %g, dense %g", g, w)
	}
	if g, w := p.LogDet(), c.LogDet(); g != w {
		t.Fatalf("LogDet: packed %g, dense %g", g, w)
	}
	matricesEqual(t, p.Inverse(), c.Inverse(), 0)

	// ForwardSubstMat: L·Y = B column by column.
	bm := randomDense(rng, n, 3)
	y := p.ForwardSubstMat(bm)
	matricesEqual(t, Mul(lowerTriangle(c.L()), y), bm, 1e-10)
}

// TestForwardSubst4IntoBitIdentical requires each lane of the four-lane
// solve to equal ForwardSubstInto on that lane bit for bit, out of place
// and in place, with 1–4 live lanes and the rest zero-padded, on a
// well-conditioned and a badly conditioned factor.
func TestForwardSubst4IntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 3, 17, 64} {
		for _, a := range []*Dense{randomSPD(rng, n), gramSPD(rng, n, 1e-6)} {
			c, err := NewCholesky(a)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			p := PackCholesky(c)
			for live := 1; live <= 4; live++ {
				b := make([]float64, 4*n)
				want := make([]Vec, 4)
				for r := 0; r < 4; r++ {
					lane := make(Vec, n)
					if r < live {
						lane = randVec(rng, n)
					}
					for i, v := range lane {
						b[4*i+r] = v
					}
					want[r] = make(Vec, n)
					p.ForwardSubstInto(want[r], lane)
				}
				out := make([]float64, 4*n)
				p.ForwardSubst4Into(out, b)
				p.ForwardSubst4Into(b, b)
				for name, got := range map[string][]float64{"out of place": out, "in place": b} {
					for r := 0; r < 4; r++ {
						for i, w := range want[r] {
							if g := got[4*i+r]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("n=%d live=%d %s: lane %d row %d = %v, want %v", n, live, name, r, i, g, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestTriPackedExtended checks the bordered update against a from-scratch
// factorization of the (n+1)×(n+1) matrix, and the non-SPD rejection.
func TestTriPackedExtended(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 14
	big := randomSPD(rng, n+1)
	a := New(n, n)
	b := make(Vec, n)
	for i := 0; i < n; i++ {
		b[i] = big.At(i, n)
		for j := 0; j < n; j++ {
			a.Set(i, j, big.At(i, j))
		}
	}
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := PackCholesky(c).Extended(b, big.At(n, n))
	if err != nil {
		t.Fatal(err)
	}
	cBig, err := NewCholesky(big)
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, ext.Unpack(), lowerTriangle(cBig.L()), 1e-10)

	// A border that breaks positive definiteness must be rejected with
	// the shared sentinel, leaving the receiver untouched.
	huge := make(Vec, n)
	for i := range huge {
		huge[i] = 1e6
	}
	p := PackCholesky(c)
	before := append(Vec(nil), p.data...)
	if _, err := p.Extended(huge, 1); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("non-SPD border: err = %v, want ErrNotPositiveDefinite", err)
	}
	for i := range before {
		if p.data[i] != before[i] {
			t.Fatal("failed Extended mutated the receiver")
		}
	}
}

// TestSyrkTBlockedBitIdentical: the cache-blocked aᵀa must match the
// unblocked kernel bit for bit (same k-ascending accumulation order) —
// the property that lets the sparse fit swap it in without perturbing
// fingerprinted traces.
func TestSyrkTBlockedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, shape := range [][2]int{{1, 1}, {5, 3}, {syrkPanel, 7}, {syrkPanel + 1, 7}, {3*syrkPanel + 11, 23}} {
		a := randomDense(rng, shape[0], shape[1])
		got, want := SyrkTBlocked(a), SyrkT(a)
		if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
			t.Fatalf("%v: shape %dx%d", shape, got.Rows(), got.Cols())
		}
		for i := range got.data {
			if got.data[i] != want.data[i] {
				t.Fatalf("%v: element %d differs: %g vs %g", shape, i, got.data[i], want.data[i])
			}
		}
	}
}

// TestPairSqDist checks the norm-expansion distance matrix against the
// direct (a−b)² loop, on both the serial path and a size that crosses
// the goroutine fan-out threshold.
func TestPairSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, shape := range [][3]int{{3, 4, 2}, {7, 1, 3}, {160, 130, 40}} {
		n, m, d := shape[0], shape[1], shape[2]
		a, b := randomDense(rng, n, d), randomDense(rng, m, d)
		got := PairSqDist(a, b)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				var want float64
				for k := 0; k < d; k++ {
					diff := a.At(i, k) - b.At(j, k)
					want += diff * diff
				}
				if !almostEq(got.At(i, j), want, 1e-9) {
					t.Fatalf("%v: d²(%d,%d) = %g, want %g", shape, i, j, got.At(i, j), want)
				}
			}
		}
	}

	// Identical rows: round-off in ‖a‖²+‖b‖²−2a·b can go negative; the
	// clamp must keep the result at exactly zero.
	a := randomDense(rng, 6, 5)
	d2 := PairSqDist(a, a)
	for i := 0; i < 6; i++ {
		if d2.At(i, i) != 0 {
			t.Fatalf("self-distance d²(%d,%d) = %g, want 0", i, i, d2.At(i, i))
		}
	}
}

func TestPairSqDistShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched column counts did not panic")
		}
	}()
	PairSqDist(New(2, 3), New(2, 4))
}
