// Package faults is the deterministic fault injector behind the
// pipeline's failure model (DESIGN.md §8). It simulates the ways a real
// measurement campaign goes wrong — crashed nodes, failed jobs,
// straggling runs, corrupted readings, power-sample dropout — so the
// layers above (internal/cluster, internal/sched, internal/al) can be
// exercised and tested against a 10% bad day instead of a happy path.
//
// Every decision is a pure function of (seed, fault kind, caller keys):
// the injector is stateless, so the same seed produces the same faults
// regardless of call order, goroutine interleaving, or a checkpoint/
// resume cycle splitting the run in two. Callers key decisions by stable
// identifiers (job ID, attempt number, sample index), never by wall
// time.
//
// A nil *Injector is valid and injects nothing, so fault hooks can be
// left wired in production paths at zero cost.
package faults

import (
	"math"

	"repro/internal/obs"
)

// Injection counters (see OBSERVABILITY.md): one per fault kind, ticked
// at decision time so a chaos run can assert every injected fault is
// visible.
var (
	injJobFail   = obs.C("faults.injected.jobfail")
	injNodeFail  = obs.C("faults.injected.nodefail")
	injStraggler = obs.C("faults.injected.straggler")
	injCorrupt   = obs.C("faults.injected.corrupt")
)

// Kind identifies one fault class.
type Kind int

// Fault kinds, in the order of the taxonomy in DESIGN.md §8.
const (
	// JobFail crashes one execution attempt partway through.
	JobFail Kind = iota
	// NodeFail takes the attempt's node down — the attempt dies like
	// JobFail but is accounted as a machine fault (SLURM NODE_FAIL).
	NodeFail
	// Straggler multiplies the attempt's runtime by Config.StragglerFactor.
	Straggler
	// CorruptMeasurement replaces a measured response with NaN, ±Inf, or
	// a gross outlier.
	CorruptMeasurement
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case JobFail:
		return "jobfail"
	case NodeFail:
		return "nodefail"
	case Straggler:
		return "straggler"
	case CorruptMeasurement:
		return "corrupt"
	default:
		return "unknown"
	}
}

// Config sets the per-kind injection rates (probabilities in [0, 1]) and
// fault magnitudes. The zero value injects nothing.
type Config struct {
	// Seed makes the injector deterministic; two injectors with the same
	// Seed and rates make identical decisions for identical keys.
	Seed int64

	// JobFailRate is the probability that one execution attempt fails.
	JobFailRate float64
	// NodeFailRate is the probability that one execution attempt is
	// killed by a node fault. Checked before JobFailRate.
	NodeFailRate float64
	// StragglerRate is the probability that an attempt runs slow.
	StragglerRate float64
	// StragglerFactor is the slowdown multiplier for stragglers
	// (default 4).
	StragglerFactor float64
	// CorruptRate is the probability that a measured response is
	// corrupted.
	CorruptRate float64
	// OutlierFactor scales the gross-outlier corruption mode: the
	// corrupted reading is the true value times this factor
	// (default 100).
	OutlierFactor float64
}

// CompositeConfig is the chaos-test shorthand: job failures, stragglers
// and corrupted measurements all at the same rate (the ISSUE's "10%
// composite fault rate" is CompositeConfig(seed, 0.10)).
func CompositeConfig(seed int64, rate float64) Config {
	return Config{
		Seed:          seed,
		JobFailRate:   rate,
		StragglerRate: rate,
		CorruptRate:   rate,
	}
}

// Injector makes deterministic fault decisions. The zero value and nil
// both inject nothing; construct a live one with New.
type Injector struct {
	cfg Config
}

// New returns an injector for the given configuration.
func New(cfg Config) *Injector {
	if cfg.StragglerFactor <= 1 {
		cfg.StragglerFactor = 4
	}
	if cfg.OutlierFactor <= 0 {
		cfg.OutlierFactor = 100
	}
	return &Injector{cfg: cfg}
}

// Enabled reports whether any fault kind has a positive rate.
func (inj *Injector) Enabled() bool {
	if inj == nil {
		return false
	}
	c := inj.cfg
	return c.JobFailRate > 0 || c.NodeFailRate > 0 || c.StragglerRate > 0 ||
		c.CorruptRate > 0
}

// splitmix64 finalizer: a high-quality 64-bit mixer (Steele et al.,
// "Fast Splittable Pseudorandom Number Generators").
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// u01 hashes (seed, kind, keys...) to a uniform draw in [0, 1). Distinct
// kinds are salted so decisions for the same keys are independent.
func (inj *Injector) u01(kind Kind, salt uint64, keys ...int) float64 {
	h := mix64(uint64(inj.cfg.Seed) ^ (uint64(kind+1) * 0xd6e8feb86659fd93) ^ salt)
	for _, k := range keys {
		h = mix64(h ^ uint64(int64(k)))
	}
	return float64(h>>11) / float64(1<<53)
}

// JobFails reports whether execution attempt `attempt` of job `job`
// crashes with a plain job failure.
func (inj *Injector) JobFails(job, attempt int) bool {
	if inj == nil || inj.cfg.JobFailRate <= 0 {
		return false
	}
	if inj.u01(JobFail, 0, job, attempt) < inj.cfg.JobFailRate {
		injJobFail.Inc()
		return true
	}
	return false
}

// NodeFails reports whether the attempt's node dies under it.
func (inj *Injector) NodeFails(job, attempt int) bool {
	if inj == nil || inj.cfg.NodeFailRate <= 0 {
		return false
	}
	if inj.u01(NodeFail, 0, job, attempt) < inj.cfg.NodeFailRate {
		injNodeFail.Inc()
		return true
	}
	return false
}

// FailFraction returns how far through its runtime the attempt got
// before dying, a deterministic draw in (0, 1]. Meaningful only after
// JobFails or NodeFails returned true for the same keys.
func (inj *Injector) FailFraction(job, attempt int) float64 {
	if inj == nil {
		return 1
	}
	f := inj.u01(JobFail, 0x51ab3f27, job, attempt)
	if f <= 0 {
		f = 0.5
	}
	return f
}

// Slowdown returns the straggler multiplier for the attempt: 1 normally,
// Config.StragglerFactor when the attempt straggles.
func (inj *Injector) Slowdown(job, attempt int) float64 {
	if inj == nil || inj.cfg.StragglerRate <= 0 {
		return 1
	}
	if inj.u01(Straggler, 0, job, attempt) < inj.cfg.StragglerRate {
		injStraggler.Inc()
		return inj.cfg.StragglerFactor
	}
	return 1
}

// Corrupt possibly corrupts a measured response, returning the value to
// record and whether corruption was injected. The corruption mode —
// NaN, +Inf, −Inf, or a gross outlier (y × OutlierFactor) — is itself a
// deterministic draw, so the guard layers above see every flavor of bad
// reading.
func (inj *Injector) Corrupt(job, attempt int, y float64) (float64, bool) {
	if inj == nil || inj.cfg.CorruptRate <= 0 {
		return y, false
	}
	if inj.u01(CorruptMeasurement, 0, job, attempt) >= inj.cfg.CorruptRate {
		return y, false
	}
	injCorrupt.Inc()
	switch mode := inj.u01(CorruptMeasurement, 0x9e3779b9, job, attempt); {
	case mode < 0.25:
		return math.NaN(), true
	case mode < 0.375:
		return math.Inf(1), true
	case mode < 0.5:
		return math.Inf(-1), true
	default:
		out := y * inj.cfg.OutlierFactor
		if out == 0 {
			out = inj.cfg.OutlierFactor
		}
		return out, true
	}
}
