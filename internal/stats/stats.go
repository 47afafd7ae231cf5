// Package stats supplies the statistical primitives used across the
// repository: summary statistics, the RMSE metric from the paper (Eq. 2),
// trapezoidal integration (per-job energy from power traces), ordinary
// least squares (EMCM weak learners), and bootstrap resampling.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance, or 0 for fewer than two
// observations.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the smallest and largest values; NaNs for empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It copies and sorts internally.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %g out of [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// RMSE returns the root mean squared error between predictions and truth
// (paper Eq. 2). The slices must have equal, nonzero length.
func RMSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("stats: RMSE length mismatch %d vs %d", len(pred), len(truth)))
	}
	if len(pred) == 0 {
		return math.NaN()
	}
	var s float64
	for i, p := range pred {
		d := p - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// MAE returns the mean absolute error between predictions and truth.
func MAE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("stats: MAE length mismatch %d vs %d", len(pred), len(truth)))
	}
	if len(pred) == 0 {
		return math.NaN()
	}
	var s float64
	for i, p := range pred {
		s += math.Abs(p - truth[i])
	}
	return s / float64(len(pred))
}

// Correlation returns the Pearson correlation coefficient of x and y,
// or NaN when either is constant.
func Correlation(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Correlation length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) < 2 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Trapezoid integrates samples (t_i, v_i) with the trapezoidal rule;
// t must be strictly increasing. This is how per-job energy (Joules) is
// inferred from instantaneous power draws (Watts) in §IV-A.
func Trapezoid(t, v []float64) float64 {
	if len(t) != len(v) {
		panic(fmt.Sprintf("stats: Trapezoid length mismatch %d vs %d", len(t), len(v)))
	}
	if len(t) < 2 {
		return 0
	}
	var area float64
	for i := 1; i < len(t); i++ {
		dt := t[i] - t[i-1]
		if dt <= 0 {
			panic(fmt.Sprintf("stats: Trapezoid requires increasing t, got dt=%g at %d", dt, i))
		}
		area += 0.5 * dt * (v[i] + v[i-1])
	}
	return area
}

// ResampleIndices returns n indices drawn uniformly with replacement from
// [0, n) — one bootstrap replicate (used by EMCM's weak-learner ensemble).
func ResampleIndices(rng *rand.Rand, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

// Histogram counts xs into nbins equal-width bins over [lo, hi]; values
// outside the range clamp to the edge bins.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	if nbins <= 0 || hi <= lo {
		panic("stats: Histogram needs nbins > 0 and hi > lo")
	}
	counts := make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}
