package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMul is an obviously correct reference product.
func naiveMul(a, b *Dense) *Dense {
	c := New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func matricesEqual(t *testing.T, got, want *Dense, tol float64) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("shape %dx%d vs %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := range got.data {
		if !almostEq(got.data[i], want.data[i], tol) {
			t.Fatalf("element %d: got %g want %g", i, got.data[i], want.data[i])
		}
	}
}

func TestMulSmall(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	matricesEqual(t, c, want, 0)
}

func TestMulRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 7, 3)
	b := randomDense(rng, 3, 5)
	matricesEqual(t, Mul(a, b), naiveMul(a, b), 1e-12)
}

func TestMulParallelMatchesSerial(t *testing.T) {
	// Size large enough to cross parallelThreshold.
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 90, 80)
	b := randomDense(rng, 80, 90)
	matricesEqual(t, Mul(a, b), naiveMul(a, b), 1e-11)
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomDense(rng, 6, 6)
	matricesEqual(t, Mul(a, eye(6)), a, 0)
	matricesEqual(t, Mul(eye(6), a), a, 0)
}

func TestMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomDense(rng, 9, 4)
	b := randomDense(rng, 6, 4)
	matricesEqual(t, MulT(a, b), naiveMul(a, b.T()), 1e-12)
}

func TestMulTParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomDense(rng, 70, 80)
	b := randomDense(rng, 75, 80)
	matricesEqual(t, MulT(a, b), naiveMul(a, b.T()), 1e-11)
}

func TestSyrkT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomDense(rng, 8, 5)
	got := SyrkT(a)
	want := naiveMul(a.T(), a)
	matricesEqual(t, got, want, 1e-12)
	if !isSymmetric(got, 0) {
		t.Fatal("SyrkT result not exactly symmetric")
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random small shapes.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		a := randomDense(rng, r, k)
		b := randomDense(rng, k, c)
		lhs := Mul(a, b).T()
		rhs := Mul(b.T(), a.T())
		for i := range lhs.data {
			if !almostEq(lhs.data[i], rhs.data[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix-vector product agrees with matrix-matrix against a
// one-column matrix.
func TestMulVecProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(10)
		c := 1 + rng.Intn(10)
		a := randomDense(rng, r, c)
		v := make(Vec, c)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		bcol := New(c, 1)
		for i, x := range v {
			bcol.Set(i, 0, x)
		}
		got := a.MulVec(v)
		want := Mul(a, bcol)
		for i := range got {
			if !almostEq(got[i], want.At(i, 0), 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomDense(rng, 128, 128)
	y := randomDense(rng, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMul512Parallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomDense(rng, 512, 512)
	y := randomDense(rng, 512, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
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
