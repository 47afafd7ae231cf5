package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %g", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance of this classic set is 32/7.
	if got := Variance(xs); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %g", got)
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %g", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("single-point variance should be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %g, %g", lo, hi)
	}
	lo, hi = MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatal("empty MinMax should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %g", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("q1 = %g", got)
	}
	if got := Median(xs); got != 3 {
		t.Fatalf("median = %g", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q0.25 = %g", got)
	}
	// Interpolation between order stats.
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Fatalf("interpolated median = %g", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestRMSEAndMAE(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 7}
	if got := RMSE(pred, truth); !almostEq(got, 4.0/math.Sqrt(3), 1e-12) {
		t.Fatalf("RMSE = %g", got)
	}
	if got := MAE(pred, truth); !almostEq(got, 4.0/3.0, 1e-12) {
		t.Fatalf("MAE = %g", got)
	}
	if got := RMSE(pred, pred); got != 0 {
		t.Fatalf("perfect RMSE = %g", got)
	}
}

func TestCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := Correlation(x, y); !almostEq(got, 1, 1e-12) {
		t.Fatalf("perfect correlation = %g", got)
	}
	yneg := []float64{8, 6, 4, 2}
	if got := Correlation(x, yneg); !almostEq(got, -1, 1e-12) {
		t.Fatalf("anti correlation = %g", got)
	}
	if !math.IsNaN(Correlation(x, []float64{5, 5, 5, 5})) {
		t.Fatal("constant series should give NaN")
	}
}

func TestTrapezoid(t *testing.T) {
	// ∫₀¹ x dx = 0.5 exactly for trapezoid on linear function.
	tGrid := []float64{0, 0.25, 0.5, 1}
	v := []float64{0, 0.25, 0.5, 1}
	if got := Trapezoid(tGrid, v); !almostEq(got, 0.5, 1e-15) {
		t.Fatalf("Trapezoid = %g", got)
	}
	if got := Trapezoid([]float64{1}, []float64{5}); got != 0 {
		t.Fatal("single sample should integrate to 0")
	}
}

func TestTrapezoidNonIncreasingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Trapezoid([]float64{0, 0}, []float64{1, 1})
}

func TestResampleIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx := ResampleIndices(rng, 100)
	if len(idx) != 100 {
		t.Fatalf("len = %d", len(idx))
	}
	for _, i := range idx {
		if i < 0 || i >= 100 {
			t.Fatalf("index %d out of range", i)
		}
	}
	// With replacement: 100 draws from 100 almost surely repeat.
	seen := map[int]bool{}
	for _, i := range idx {
		seen[i] = true
	}
	if len(seen) == 100 {
		t.Fatal("suspiciously no repeats in bootstrap sample")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.6, 0.9, -5, 99}
	h := Histogram(xs, 0, 1, 2)
	if h[0] != 3 || h[1] != 3 { // -5 clamps into bin 0, 99 into bin 1
		t.Fatalf("Histogram = %v", h)
	}
}

func TestOLSExactFit(t *testing.T) {
	// y = 3 + 2x exactly.
	x := mat.NewFromRows([][]float64{{0}, {1}, {2}, {3}})
	y := []float64{3, 5, 7, 9}
	m, err := FitOLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.Coef[0], 3, 1e-8) || !almostEq(m.Coef[1], 2, 1e-8) {
		t.Fatalf("Coef = %v", m.Coef)
	}
	if got := m.Predict([]float64{10}); !almostEq(got, 23, 1e-7) {
		t.Fatalf("Predict = %g", got)
	}
	all := m.PredictAll(x)
	for i := range y {
		if !almostEq(all[i], y[i], 1e-7) {
			t.Fatalf("PredictAll[%d] = %g want %g", i, all[i], y[i])
		}
	}
}

func TestOLSMultivariate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, d := 200, 3
	x := mat.New(n, d)
	trueBeta := []float64{1.5, -2, 0.5, 3} // intercept + 3 slopes
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.RawRow(i)
		y[i] = trueBeta[0]
		for j := 0; j < d; j++ {
			row[j] = rng.NormFloat64()
			y[i] += trueBeta[j+1] * row[j]
		}
		y[i] += 0.01 * rng.NormFloat64()
	}
	m, err := FitOLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trueBeta {
		if math.Abs(m.Coef[i]-trueBeta[i]) > 0.01 {
			t.Fatalf("Coef[%d] = %g, want %g", i, m.Coef[i], trueBeta[i])
		}
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := FitOLS(mat.New(2, 1), []float64{1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := FitOLS(mat.New(0, 1), nil); err == nil {
		t.Fatal("expected empty error")
	}
}

// Property: RMSE is translation-detecting — shifting predictions by c
// yields RMSE ≥ |c| - RMSE(original) and RMSE(x,x) = 0.
func TestRMSEProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		if RMSE(a, a) != 0 {
			return false
		}
		c := 1 + rng.Float64()
		b := make([]float64, n)
		for i := range b {
			b[i] = a[i] + c
		}
		return almostEq(RMSE(b, a), c, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
