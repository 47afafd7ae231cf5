package cluster

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/stats"
)

// PowerSample is one IPMI reading: elapsed seconds since job start and
// instantaneous draw in Watts.
type PowerSample struct {
	T     float64
	Watts float64
}

// TraceConfig controls the simulated IPMI sampler.
type TraceConfig struct {
	// PeriodS is the sampling period in seconds (default 1).
	PeriodS float64
	// Dropout is the probability that any individual reading is lost —
	// the trace "gaps" of §V-A (default 0).
	Dropout float64
	// JitterW is the standard deviation of additive Gaussian sensor
	// noise in Watts (default 0).
	JitterW float64
}

// MinSamplesPer60S is the paper's quality gate: jobs whose traces carry
// fewer than 10 power readings per 60 seconds of computation are excluded
// from the Power dataset (§V-A).
const MinSamplesPer60S = 10

// ErrTraceTooSparse is returned by EnergyFromTrace when a trace fails the
// paper's density gate.
var ErrTraceTooSparse = errors.New("cluster: power trace too sparse for energy estimation")

// SampleTraceFunc simulates an IPMI power trace over a job of the given
// duration whose true draw may vary — e.g. dips during the coarse-grid
// phases of a multigrid solve. watts is evaluated at each sampling
// instant; readings are taken every PeriodS, dropped independently with
// probability Dropout, and perturbed by sensor noise.
func SampleTraceFunc(rng *rand.Rand, durationS float64, watts func(t float64) float64, cfg TraceConfig) []PowerSample {
	period := cfg.PeriodS
	if period <= 0 {
		period = 1
	}
	var out []PowerSample
	for t := 0.0; t <= durationS; t += period {
		if cfg.Dropout > 0 && rng.Float64() < cfg.Dropout {
			continue
		}
		w := watts(t)
		if cfg.JitterW > 0 {
			w += cfg.JitterW * rng.NormFloat64()
		}
		if w < 0 {
			w = 0
		}
		out = append(out, PowerSample{T: t, Watts: w})
	}
	powerTraces.Inc()
	powerSamples.Add(int64(len(out)))
	return out
}

// EnergyFromTrace estimates the job's energy in Joules by trapezoidal
// integration of the trace over [0, durationS], extending the first and
// last readings to the interval edges. It returns ErrTraceTooSparse when
// the trace density falls below MinSamplesPer60S per 60 s of computation,
// mirroring the paper's exclusion rule.
func EnergyFromTrace(samples []PowerSample, durationS float64) (float64, error) {
	if durationS <= 0 {
		return 0, errors.New("cluster: non-positive duration")
	}
	need := int(math.Ceil(durationS / 60.0 * MinSamplesPer60S))
	if need < 2 {
		need = 2
	}
	if len(samples) < need {
		sparseTraces.Inc()
		return 0, ErrTraceTooSparse
	}
	ts := make([]float64, 0, len(samples)+2)
	ws := make([]float64, 0, len(samples)+2)
	if samples[0].T > 0 {
		ts = append(ts, 0)
		ws = append(ws, samples[0].Watts)
	}
	for i, s := range samples {
		if i > 0 && s.T <= ts[len(ts)-1] {
			continue // defensive: drop non-increasing timestamps
		}
		ts = append(ts, s.T)
		ws = append(ws, s.Watts)
	}
	if last := ts[len(ts)-1]; last < durationS {
		ts = append(ts, durationS)
		ws = append(ws, ws[len(ws)-1])
	}
	energyEstimates.Inc()
	return stats.Trapezoid(ts, ws), nil
}
