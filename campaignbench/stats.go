package main

import (
	"math"
	"sort"
	"time"
)

// summary is a latency distribution reduced to the two numbers the
// benchmark reports: the median and the tail.
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // the percentile Tail was read at
}

// tailPct is the highest percentile, capped at 99, that still leaves at
// least ten samples strictly above its nearest-rank position. With n
// samples the nearest-rank index of percentile p is ceil(p·n/100)−1, so
// ten samples beyond it needs p ≤ 100·(n−10)/n. Below 20 samples no
// percentile at or above the median qualifies and the median is used.
func tailPct(n int) float64 {
	if n < 20 {
		return 50
	}
	p := math.Floor(100 * float64(n-10) / float64(n))
	return math.Min(99, p)
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted))/100)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	tp := tailPct(len(s))
	return summary{N: len(s), P50: percentile(s, 50), Tail: percentile(s, tp), TailPct: tp}
}

func median(xs []float64) float64 { return summarize(xs).P50 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
