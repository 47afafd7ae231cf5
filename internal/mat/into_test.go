package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refCholesky is the unblocked factorization loop NewCholesky ran before
// it became a wrapper over NewCholeskyInto; the reused-buffer path must
// reproduce its bits.
func refCholesky(a *Dense) (*Dense, error) {
	n := a.rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.data[i*n+j]
			for k := 0; k < j; k++ {
				s -= float64(l.data[i*n+k] * l.data[j*n+k])
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, ErrNotPositiveDefinite
				}
				l.data[i*n+i] = math.Sqrt(s)
			} else {
				l.data[i*n+j] = s / l.data[j*n+j]
			}
		}
	}
	return l, nil
}

// refForwardSubst solves L·y = b with a freshly allocated full-length
// forward substitution on a square lower-triangular L.
func refForwardSubst(l *Dense, b Vec) Vec {
	n := l.rows
	y := make(Vec, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= float64(l.data[i*n+k] * y[k])
		}
		y[i] = s / l.data[i*n+i]
	}
	return y
}

// refSolve solves A·x = b with freshly allocated full-length forward and
// back substitutions, the way SolveVec did before SolveVecInto.
func refSolve(l *Dense, b Vec) Vec {
	n := l.rows
	x := refForwardSubst(l, b)
	for i := n - 1; i >= 0; i-- {
		x[i] /= l.data[i*n+i]
		for k := 0; k < i; k++ {
			x[k] -= float64(l.data[i*n+k] * x[i])
		}
	}
	return x
}

// refInverse solves A·x = e_j column by column with refSolve, the way
// Inverse did before InverseInto.
func refInverse(l *Dense) *Dense {
	n := l.rows
	out := New(n, n)
	for j := 0; j < n; j++ {
		e := make(Vec, n)
		e[j] = 1
		for i, v := range refSolve(l, e) {
			out.data[i*n+j] = v
		}
	}
	return out
}

// gramSPD is a squared-exponential Gram matrix on random 1-D points plus
// a small ridge: symmetric positive definite but badly conditioned, like
// the covariance matrices of a GP fit.
func gramSPD(rng *rand.Rand, n int, ridge float64) *Dense {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 4 * rng.Float64()
	}
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := xs[i] - xs[j]
			a.data[i*n+j] = math.Exp(-d * d / 2)
		}
	}
	a.AddDiag(ridge)
	return a
}

func randVec(rng *rand.Rand, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func assertSameBits(t *testing.T, what string, got, want *Dense) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.rows, got.cols, want.rows, want.cols)
	}
	for i, w := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(w) {
			t.Fatalf("%s: entry (%d,%d) = %v, want %v", what, i/want.cols, i%want.cols, got.data[i], w)
		}
	}
}

// TestIntoVariantsBitIdentical drives one Cholesky, one inverse buffer
// and one solve vector through a sequence of sizes, matrices and failed
// factorizations, and requires every result to equal the allocating
// reference bit for bit.
func TestIntoVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	notPD := func(n int) *Dense {
		a := randomSPD(rng, n)
		a.data[(n-1)*n+n-1] = -1 // last pivot fails after the others were written
		return a
	}
	var ch Cholesky
	var inv *Dense
	var x Vec
	steps := []struct {
		n    int
		kind string
	}{
		{1, "spd"}, {2, "spd"}, {17, "gram"}, {17, "notpd"}, {17, "spd"},
		{64, "gram"}, {64, "notpd"}, {64, "gram"}, {2, "notpd"}, {2, "gram"}, {17, "gram"},
	}
	for s, st := range steps {
		var a *Dense
		switch st.kind {
		case "spd":
			a = randomSPD(rng, st.n)
		case "gram":
			a = gramSPD(rng, st.n, 1e-6)
		case "notpd":
			a = notPD(st.n)
		}
		what := fmt.Sprintf("step %d (n=%d %s)", s, st.n, st.kind)
		wantL, wantErr := refCholesky(a)
		got, err := NewCholeskyInto(&ch, a)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: error %v, reference error %v", what, err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrNotPositiveDefinite) || got != nil {
				t.Fatalf("%s: got (%v, %v), want (nil, ErrNotPositiveDefinite)", what, got, err)
			}
			continue
		}
		if got != &ch {
			t.Fatalf("%s: NewCholeskyInto did not return its destination", what)
		}
		assertSameBits(t, what+" factor", ch.Unpack(), wantL)
		fresh, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("%s: NewCholesky: %v", what, err)
		}
		assertSameBits(t, what+" NewCholesky factor", fresh.Unpack(), wantL)

		if inv == nil || inv.rows != st.n {
			inv = New(st.n, st.n)
			x = make(Vec, st.n)
		}
		wantInv := refInverse(wantL)
		assertSameBits(t, what+" InverseInto", ch.InverseInto(inv), wantInv)
		assertSameBits(t, what+" Inverse", fresh.Inverse(), wantInv)

		b := randVec(rng, st.n)
		want := refSolve(wantL, b)
		assertSameBits(t, what+" SolveVecInto", NewFromData(st.n, 1, ch.SolveVecInto(x, b)), NewFromData(st.n, 1, want))
		inPlace := b.Clone()
		assertSameBits(t, what+" SolveVecInto aliased", NewFromData(st.n, 1, ch.SolveVecInto(inPlace, inPlace)), NewFromData(st.n, 1, want))

		// Poison the factor storage: the next reuse must overwrite every
		// entry.
		for i := range ch.data {
			ch.data[i] = math.NaN()
		}
	}
}

// TestNewCholeskyIntoCountsAndReuses checks the reusing factorization
// still reports itself to the mat.cholesky.* metrics and allocates
// nothing once its buffer fits.
func TestNewCholeskyIntoCountsAndReuses(t *testing.T) {
	a := randomSPD(rand.New(rand.NewSource(22)), 12)
	var ch Cholesky
	count, sizes, durs := choleskyCount.Value(), choleskySize.Count(), choleskyDur.Count()
	if _, err := NewCholeskyInto(&ch, a); err != nil {
		t.Fatal(err)
	}
	if d := choleskyCount.Value() - count; d != 1 {
		t.Fatalf("mat.cholesky.count advanced by %d, want 1", d)
	}
	if choleskySize.Count()-sizes != 1 || choleskyDur.Count()-durs != 1 {
		t.Fatal("mat.cholesky.size / .duration did not record the factorization")
	}
	inv := New(12, 12)
	x := make(Vec, 12)
	b := randVec(rand.New(rand.NewSource(23)), 12)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewCholeskyInto(&ch, a); err != nil {
			t.Fatal(err)
		}
		ch.InverseInto(inv)
		ch.SolveVecInto(x, b)
	})
	if allocs != 0 {
		t.Fatalf("reused factor/inverse/solve allocates %v times per run", allocs)
	}
}

// factorEntries returns the lower triangle of ch's factor row by row:
// row i contributes L[i,0..i]. It and forwardSubst4 are the only factor
// accessors TestFactorGoldenBits uses, so the golden test reads the same
// whatever the factor's storage layout.
func factorEntries(ch *Cholesky) []float64 {
	return append([]float64(nil), ch.data...)
}

// forwardSubst4 runs ch's four-lane forward solve.
func forwardSubst4(ch *Cholesky, dst, b []float64) {
	ch.ForwardSubst4Into(dst, b)
}
