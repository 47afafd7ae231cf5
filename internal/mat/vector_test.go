package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot(Vec{1, 2, 3}, Vec{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %g, want 32", got)
	}
	if got := Dot(Vec{}, Vec{}); got != 0 {
		t.Fatalf("empty Dot = %g", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot(Vec{1}, Vec{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2(Vec{3, 4}); !almostEq(got, 5, 1e-15) {
		t.Fatalf("Norm2 = %g, want 5", got)
	}
	if got := Norm2(Vec{0, 0}); got != 0 {
		t.Fatalf("Norm2 of zero = %g", got)
	}
	// Overflow resistance: plain sum of squares would overflow.
	big := Vec{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := Norm2(big); !almostEq(got, want, 1e-10) {
		t.Fatalf("Norm2 big = %g, want %g", got, want)
	}
}

func TestNormInf(t *testing.T) {
	if got := NormInf(Vec{-7, 3, 5}); got != 7 {
		t.Fatalf("NormInf = %g, want 7", got)
	}
}

func TestAxpy(t *testing.T) {
	y := Vec{1, 1, 1}
	Axpy(2, Vec{1, 2, 3}, y)
	want := Vec{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestScaleAddSubVec(t *testing.T) {
	v := Vec{1, -2}
	ScaleVec(-3, v)
	if v[0] != -3 || v[1] != 6 {
		t.Fatalf("ScaleVec: %v", v)
	}
	s := AddVec(Vec{1, 2}, Vec{3, 4})
	if s[0] != 4 || s[1] != 6 {
		t.Fatalf("AddVec: %v", s)
	}
	d := SubVec(Vec{1, 2}, Vec{3, 4})
	if d[0] != -2 || d[1] != -2 {
		t.Fatalf("SubVec: %v", d)
	}
}

func TestMulVecAndT(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v := Vec{1, 1, 1}
	got := m.MulVec(v)
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec: %v", got)
	}
	w := Vec{1, 2}
	gt := m.MulVecT(w)
	want := Vec{9, 12, 15}
	for i := range gt {
		if gt[i] != want[i] {
			t.Fatalf("MulVecT: %v want %v", gt, want)
		}
	}
}

func TestVecClone(t *testing.T) {
	v := Vec{1, 2}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Fatal("Clone aliases")
	}
}

// Property: Cauchy-Schwarz |x·y| ≤ |x||y|.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		x, y := make(Vec, n), make(Vec, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MulVecT(v) equals T().MulVec(v).
func TestMulVecTProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(10)
		c := 1 + rng.Intn(10)
		m := randomDense(rng, r, c)
		v := make(Vec, r)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		a := m.MulVecT(v)
		b := m.T().MulVec(v)
		for i := range a {
			if !almostEq(a[i], b[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangularSolves(t *testing.T) {
	l := NewFromRows([][]float64{{2, 0, 0}, {1, 3, 0}, {4, 5, 6}})
	ch, err := NewCholesky(MulT(l, l)) // its factor is l
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, ch.Unpack(), l, 1e-12)
	xTrue := Vec{1, -2, 0.5}
	b := l.MulVec(xTrue)
	y := ch.ForwardSubst(b)
	for i := range y {
		if !almostEq(y[i], xTrue[i], 1e-12) {
			t.Fatalf("ForwardSubst: %v want %v", y, xTrue)
		}
	}
	// Lᵀ x = b via BackSubstTInPlace.
	xt := l.T().MulVec(xTrue)
	ch.BackSubstTInPlace(xt)
	for i := range xt {
		if !almostEq(xt[i], xTrue[i], 1e-12) {
			t.Fatalf("BackSubstTInPlace: %v want %v", xt, xTrue)
		}
	}
}

func TestForwardSubstMat(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomSPD(rng, 8)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := randomDense(rng, 8, 3)
	y := ch.ForwardSubstMat(b)
	rec := Mul(ch.Unpack(), y)
	matricesEqual(t, rec, b, 1e-9)
}
