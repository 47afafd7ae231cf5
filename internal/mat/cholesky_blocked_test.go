package mat

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyParallelMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, n := range []int{10, 64, 130, 257} {
		a := randomSPD(rng, n)
		blocked, err := NewCholeskyParallel(a, 32)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ref, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		lb, lr := blocked.Unpack(), ref.Unpack()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(lb.At(i, j), lr.At(i, j), 1e-9) {
					t.Fatalf("n=%d: L[%d,%d] = %g vs %g", n, i, j, lb.At(i, j), lr.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyParallelSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	n := 200
	a := randomSPD(rng, n)
	ch, err := NewCholeskyParallel(a, 0) // default block
	if err != nil {
		t.Fatal(err)
	}
	xTrue := make(Vec, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	x := ch.SolveVec(b)
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-7) {
			t.Fatalf("x[%d] = %g want %g", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskyParallelIndefinite(t *testing.T) {
	n := 150
	a := eye(n)
	a.Set(n/2, n/2, -1) // indefinite deep inside a block
	if _, err := NewCholeskyParallel(a, 32); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v", err)
	}
}

// Determinism: repeated factorizations are bitwise identical regardless
// of goroutine scheduling.
func TestCholeskyParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	a := randomSPD(rng, 180)
	first, err := NewCholeskyParallel(a, 48)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		again, err := NewCholeskyParallel(a, 48)
		if err != nil {
			t.Fatal(err)
		}
		fr, ar := first.data, again.data
		for i := range fr {
			if fr[i] != ar[i] {
				t.Fatalf("nondeterministic at element %d", i)
			}
		}
	}
}

// Property: blocked solve residuals are tiny for random SPD systems and
// random block sizes.
func TestCholeskyParallelResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 65 + rng.Intn(100)
		nb := 8 + rng.Intn(56)
		a := randomSPD(rng, n)
		ch, err := NewCholeskyParallel(a, nb)
		if err != nil {
			return false
		}
		b := make(Vec, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := ch.SolveVec(b)
		r := SubVec(a.MulVec(x), b)
		return Norm2(r) <= 1e-8*(1+Norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCholeskyUnblocked500(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(rng, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskyBlocked500(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(rng, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholeskyParallel(a, 0); err != nil {
			b.Fatal(err)
		}
	}
}
