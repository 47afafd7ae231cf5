package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randSPD returns a random well-conditioned n x n SPD matrix: BᵀB scaled
// to O(1) entries plus a diagonal shift that keeps the smallest
// eigenvalue comfortably positive.
func randSPD(rng *rand.Rand, n int) *Dense {
	b := New(n, n)
	for i := range b.data {
		b.data[i] = rng.NormFloat64()
	}
	a := SyrkT(b)
	a.Scale(1 / float64(n))
	a.AddDiag(0.5 + rng.Float64())
	return a
}

// recompose returns L·Lᵀ.
func recompose(l *Dense) *Dense { return MulT(l, l) }

// maxAbsDiff returns max |a_ij − b_ij|.
func maxAbsDiff(a, b *Dense) float64 {
	var mx float64
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > mx {
				mx = d
			}
		}
	}
	return mx
}

// TestCholeskyRecomposeProperty: for random seeded SPD matrices of every
// size 1..64, the factor satisfies L·Lᵀ ≈ A.
func TestCholeskyRecomposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 64; n++ {
		a := randSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxAbsDiff(recompose(ch.Unpack()), a); d > 1e-10 {
			t.Errorf("n=%d: |L·Lᵀ − A|∞ = %g", n, d)
		}
		// The factor must be lower triangular with positive diagonal.
		for i := 0; i < n; i++ {
			if ch.Unpack().At(i, i) <= 0 {
				t.Errorf("n=%d: nonpositive diagonal at %d", n, i)
			}
			for j := i + 1; j < n; j++ {
				if ch.Unpack().At(i, j) != 0 {
					t.Errorf("n=%d: nonzero upper element (%d,%d)", n, i, j)
				}
			}
		}
	}
}

// TestCholeskyBlockedMatchesUnblocked: the parallel blocked factorization
// agrees with the unblocked kernel across sizes 1..64 and block sizes
// that hit every panel-boundary case (n < nb, n = k·nb, n = k·nb ± 1).
func TestCholeskyBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 64; n++ {
		a := randSPD(rng, n)
		ref, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for _, nb := range []int{1, 2, 3, 4, 7, 8, 16, 31, 32, 33} {
			got, err := NewCholeskyParallel(a, nb)
			if err != nil {
				t.Fatalf("n=%d nb=%d: %v", n, nb, err)
			}
			if d := maxAbsDiff(got.Unpack(), ref.Unpack()); d > 1e-10 {
				t.Errorf("n=%d nb=%d: blocked vs unblocked |ΔL|∞ = %g", n, nb, d)
			}
		}
	}
}

// TestRankOneUpdateProperty: updating the factor of A with v equals
// recomputing the factor of A + v·vᵀ within 1e-10, across sizes and
// seeds.
func TestRankOneUpdateProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 64; n++ {
		a := randSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		v := make(Vec, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		up := ch.RankOneUpdate(v)

		want := a.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want.Set(i, j, want.At(i, j)+v[i]*v[j])
			}
		}
		ref, err := NewCholesky(want)
		if err != nil {
			t.Fatalf("n=%d recompute: %v", n, err)
		}
		if d := maxAbsDiff(up.Unpack(), ref.Unpack()); d > 1e-10 {
			t.Errorf("n=%d: update vs recompute |ΔL|∞ = %g", n, d)
		}
		if d := maxAbsDiff(recompose(up.Unpack()), want); d > 1e-10 {
			t.Errorf("n=%d: |L'·L'ᵀ − (A+vvᵀ)|∞ = %g", n, d)
		}
	}
}

// TestRankOneDowndateProperty: downdating an updated factor with the same
// vector recovers the original factor, and downdating directly matches a
// recomputation of A − v·vᵀ when that matrix stays SPD.
func TestRankOneDowndateProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 1; n <= 64; n++ {
		a := randSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		v := make(Vec, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		down, err := ch.RankOneUpdate(v).RankOneDowndate(v)
		if err != nil {
			t.Fatalf("n=%d: downdate of update failed: %v", n, err)
		}
		if d := maxAbsDiff(down.Unpack(), ch.Unpack()); d > 1e-9 {
			t.Errorf("n=%d: update∘downdate drift |ΔL|∞ = %g", n, d)
		}
	}
}

// TestRankOneDowndateRejectsIndefinite: removing a vector that breaks
// positive definiteness must fail rather than emit NaNs.
func TestRankOneDowndateRejectsIndefinite(t *testing.T) {
	a := eye(4)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// I − 4·e₀e₀ᵀ has eigenvalue −3.
	if _, err := ch.RankOneDowndate(Vec{2, 0, 0, 0}); err == nil {
		t.Fatal("downdate to an indefinite matrix succeeded")
	}
}

// TestExtendedMatchesRefactorization: the bordered O(n²) extension equals
// refactorizing the bordered matrix, across sizes — the mat-level
// guarantee behind gp.UpdateWithPoint.
func TestExtendedMatchesRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for n := 1; n <= 48; n++ {
		a := randSPD(rng, n+1)
		// Split the bordered matrix into its leading block and border.
		lead := New(n, n)
		for i := 0; i < n; i++ {
			copy(lead.RawRow(i), a.RawRow(i)[:n])
		}
		border := make(Vec, n)
		for i := 0; i < n; i++ {
			border[i] = a.At(i, n)
		}
		ch, err := NewCholesky(lead)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ext, err := ch.Extended(border, a.At(n, n))
		if err != nil {
			t.Fatalf("n=%d: Extended: %v", n, err)
		}
		ref, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: refactorize: %v", n, err)
		}
		if d := maxAbsDiff(ext.Unpack(), ref.Unpack()); d > 1e-10 {
			t.Errorf("n=%d: Extended vs refactorization |ΔL|∞ = %g", n, d)
		}
	}
}
