package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 20, 60} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l := ch.Unpack()
		rec := MulT(l, l) // L·Lᵀ
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(rec.At(i, j), a.At(i, j), 1e-9) {
					t.Fatalf("n=%d: L·Lᵀ[%d,%d]=%g want %g", n, i, j, rec.At(i, j), a.At(i, j))
				}
			}
		}
		// L must be lower triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("upper entry L[%d,%d]=%g nonzero", i, j, l.At(i, j))
				}
			}
		}
	}
}

func TestCholeskySolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomSPD(rng, 25)
	xTrue := make(Vec, 25)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.SolveVec(b)
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-8) {
			t.Fatalf("x[%d]=%g want %g", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// Diagonal matrix: log det is the sum of logs.
	d := New(4, 4)
	vals := []float64{2, 3, 0.5, 7}
	want := 0.0
	for i, v := range vals {
		d.Set(i, i, v)
		want += math.Log(v)
	}
	ch, err := NewCholesky(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.LogDet(); !almostEq(got, want, 1e-12) {
		t.Fatalf("LogDet = %g, want %g", got, want)
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randomSPD(rng, 10)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := ch.Inverse()
	matricesEqual(t, Mul(a, inv), eye(10), 1e-8)
}

func TestCholeskyQuadForm(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randomSPD(rng, 9)
	b := make(Vec, 9)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := Dot(b, ch.SolveVec(b))
	if got := ch.QuadForm(b); !almostEq(got, want, 1e-9) {
		t.Fatalf("QuadForm = %g, want %g", got, want)
	}
	if got := ch.QuadForm(b); got <= 0 {
		t.Fatalf("QuadForm must be positive for SPD, got %g", got)
	}
}

func TestCholeskyIndefiniteFails(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyJitterRecovers(t *testing.T) {
	// Rank-deficient PSD matrix (outer product) needs jitter.
	v := Vec{1, 2, 3}
	a := outer(v, v)
	ch, jitter, err := NewCholeskyJitter(a, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if jitter <= 0 {
		t.Fatalf("expected positive jitter, got %g", jitter)
	}
	if ch.Size() != 3 {
		t.Fatalf("Size = %d", ch.Size())
	}
}

func TestCholeskyJitterNoOpWhenSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randomSPD(rng, 6)
	_, jitter, err := NewCholeskyJitter(a, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if jitter != 0 {
		t.Fatalf("jitter = %g, want 0 for SPD input", jitter)
	}
}

func TestCholeskyJitterGivesUp(t *testing.T) {
	// A matrix with a hugely negative eigenvalue cannot be rescued by
	// tiny jitter within a couple of retries.
	a := NewFromRows([][]float64{{1, 0}, {0, -1e12}})
	if _, _, err := NewCholeskyJitter(a, 1e-12, 2); err == nil {
		t.Fatal("expected failure")
	}
}

// Property: for random SPD systems, the solve residual is tiny.
func TestCholeskySolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		a := randomSPD(rng, n)
		b := make(Vec, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := ch.SolveVec(b)
		r := SubVec(a.MulVec(x), b)
		return Norm2(r) <= 1e-8*(1+Norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: log det via Cholesky matches the product of eigenvalue-free
// 2x2 analytic determinant for random SPD 2x2 matrices.
func TestCholeskyLogDet2x2Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// a c; c b with a,b > c ensures SPD when a*b - c² > 0.
		c := rng.Float64()
		a := 1 + rng.Float64()
		b := 1 + rng.Float64()
		m := NewFromRows([][]float64{{a, c}, {c, b}})
		det := a*b - c*c
		if det <= 1e-9 {
			return true // skip near-singular
		}
		ch, err := NewCholesky(m)
		if err != nil {
			return false
		}
		return almostEq(ch.LogDet(), math.Log(det), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCholeskyAtMatchesUnpack checks At and Unpack read the same
// packed factor: the lower triangle entry for entry, zero above it.
func TestCholeskyAtMatchesUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 33} {
		c, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if c.Size() != n {
			t.Fatalf("n=%d: size %d", n, c.Size())
		}
		l := c.Unpack()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := c.At(i, j), l.At(i, j); got != want {
					t.Fatalf("n=%d: At(%d,%d) = %g, Unpack %g", n, i, j, got, want)
				}
				if j > i && l.At(i, j) != 0 {
					t.Fatalf("n=%d: upper entry L[%d,%d] = %g nonzero", n, i, j, l.At(i, j))
				}
			}
		}
	}
}

// TestCholeskySolvesMatchReference pins every solve/determinant/inverse
// method to the dense reference solves of into_test.go run on the
// unpacked factor: bit-identical outputs.
func TestCholeskySolvesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 19
	c, err := NewCholesky(randomSPD(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	l := c.Unpack()

	b := make(Vec, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got, want := c.SolveVec(b), refSolve(l, b)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("SolveVec[%d]: %g, reference %g", i, got[i], want[i])
		}
	}
	y := refForwardSubst(l, b)
	if g, w := c.QuadForm(b), Dot(y, y); g != w {
		t.Fatalf("QuadForm: %g, reference %g", g, w)
	}
	var logDet float64
	for i := 0; i < n; i++ {
		logDet += math.Log(l.At(i, i))
	}
	if g, w := c.LogDet(), 2*logDet; g != w {
		t.Fatalf("LogDet: %g, reference %g", g, w)
	}
	matricesEqual(t, c.Inverse(), refInverse(l), 0)

	// ForwardSubstMat: L·Y = B column by column.
	bm := randomDense(rng, n, 3)
	matricesEqual(t, Mul(l, c.ForwardSubstMat(bm)), bm, 1e-10)
}

// TestForwardSubst4IntoBitIdentical requires each lane of the four-lane
// solve to equal ForwardSubstInto on that lane bit for bit, out of place
// and in place, with 1–4 live lanes and the rest zero-padded, on a
// well-conditioned and a badly conditioned factor.
func TestForwardSubst4IntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 3, 17, 64} {
		for _, a := range []*Dense{randomSPD(rng, n), gramSPD(rng, n, 1e-6)} {
			p, err := NewCholesky(a)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
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

// TestForwardSubstRowBitIdentical requires the row-at-a-time solve to
// equal ForwardSubstInto on every lane bit for bit, with its rows
// computed over two lane ranges, on a well-conditioned and a badly
// conditioned factor.
func TestForwardSubstRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const lanes = 7
	for _, n := range []int{1, 2, 17, 40} {
		for _, a := range []*Dense{randomSPD(rng, n), gramSPD(rng, n, 1e-6)} {
			p, err := NewCholesky(a)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			b := make([][]float64, n) // b[j][i]: element j of lane i
			y := make([][]float64, n)
			for j := range b {
				b[j] = randVec(rng, lanes)
				y[j] = make([]float64, lanes)
			}
			for j := 0; j < n; j++ {
				p.ForwardSubstRow(j, y, b[j], 0, 3)
				p.ForwardSubstRow(j, y, b[j], 3, lanes)
			}
			for i := 0; i < lanes; i++ {
				lane := make(Vec, n)
				for j := range lane {
					lane[j] = b[j][i]
				}
				want := p.ForwardSubst(lane)
				for j, w := range want {
					if g := y[j][i]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("n=%d: lane %d row %d = %v, want %v", n, i, j, g, w)
					}
				}
			}
		}
	}
}

// TestCholeskyExtended checks the bordered update against a
// from-scratch factorization of the (n+1)×(n+1) matrix.
func TestCholeskyExtended(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	n := 8
	full := randomSPD(rng, n+1)
	lead := New(n, n)
	for i := 0; i < n; i++ {
		copy(lead.RawRow(i), full.RawRow(i)[:n])
	}
	border := make(Vec, n)
	for i := 0; i < n; i++ {
		border[i] = full.At(i, n)
	}
	chLead, err := NewCholesky(lead)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := chLead.Extended(border, full.At(n, n))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewCholesky(full)
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, ext.Unpack(), direct.Unpack(), 1e-10)
	if ext.Size() != n+1 {
		t.Fatalf("Size = %d", ext.Size())
	}
}

// TestCholeskyExtendedRejectsIndefinite: a border that breaks positive
// definiteness must be rejected with the shared sentinel.
func TestCholeskyExtendedRejectsIndefinite(t *testing.T) {
	ch, err := NewCholesky(eye(2))
	if err != nil {
		t.Fatal(err)
	}
	// Border that makes the matrix indefinite: c < |L⁻¹b|².
	if _, err := ch.Extended(Vec{3, 4}, 1); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v", err)
	}
}

// TestTriPackedExtended checks the bordered update of a 14×14 packed
// factor against a from-scratch factorization of the 15×15 matrix, and
// that a non-SPD border is rejected without touching the receiver.
func TestTriPackedExtended(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 14
	big := randomSPD(rng, n+1)
	a := New(n, n)
	b := make(Vec, n)
	for i := 0; i < n; i++ {
		b[i] = big.At(i, n)
		copy(a.RawRow(i), big.RawRow(i)[:n])
	}
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := c.Extended(b, big.At(n, n))
	if err != nil {
		t.Fatal(err)
	}
	cBig, err := NewCholesky(big)
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, ext.Unpack(), cBig.Unpack(), 1e-10)

	huge := make(Vec, n)
	for i := range huge {
		huge[i] = 1e6
	}
	before := append([]float64(nil), c.data...)
	if _, err := c.Extended(huge, 1); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("non-SPD border: err = %v, want ErrNotPositiveDefinite", err)
	}
	for i := range before {
		if c.data[i] != before[i] {
			t.Fatal("failed Extended mutated the receiver")
		}
	}
}

func BenchmarkCholesky200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(rng, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskySolve200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(rng, 200)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make(Vec, 200)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.SolveVec(rhs)
	}
}

func BenchmarkCholeskyExtended200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(rng, 200)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	border := make(Vec, 200)
	for i := range border {
		border[i] = 0.01 * rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Extended(border, 300); err != nil {
			b.Fatal(err)
		}
	}
}
