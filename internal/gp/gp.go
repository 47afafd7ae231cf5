package gp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/obs"
)

// Fit/refit metrics (see OBSERVABILITY.md): spans cover whole fits and
// the hyperparameter search inside them; the counters below tally the
// cheap high-frequency operations a span per call would distort.
var (
	lmlEvals       = obs.C("gp.lml.evals")
	conditionOps   = obs.C("gp.condition.ops")
	predictBatches = obs.C("gp.predict.batches")
	predictPoints  = obs.C("gp.predict.points")
)

// Default noise bounds (standard deviations, not variances).
const (
	DefaultNoiseFloor = 1e-8
	DefaultNoiseCeil  = 1e3
)

// Config controls model construction and hyperparameter fitting.
type Config struct {
	// Kernel is the covariance function; required. The GP mutates its
	// hyperparameters during fitting.
	Kernel kernel.Kernel

	// NoiseInit is the initial noise standard deviation σn
	// (default 0.1).
	NoiseInit float64

	// NoiseFloor is the lower bound for σn during optimization
	// (default DefaultNoiseFloor). Raising it to ~1e-1 reproduces the
	// paper's overfitting fix (Fig. 7b).
	NoiseFloor float64

	// NoiseCeil is the upper bound for σn (default DefaultNoiseCeil).
	NoiseCeil float64

	// FixedNoise, when true, keeps σn at NoiseInit instead of
	// optimizing it.
	FixedNoise bool

	// Optimize enables hyperparameter fitting by LML gradient ascent
	// (Eq. 13). When false the kernel is used as configured.
	Optimize bool

	// Restarts is the number of additional random optimizer starts
	// (default 4), mirroring scikit-learn's n_restarts_optimizer.
	Restarts int

	// Normalize standardizes y to zero mean and unit variance before
	// fitting; predictions are transformed back. Noise bounds then
	// apply in the normalized space.
	Normalize bool

	// Jitter is the base diagonal jitter used when the covariance
	// matrix is numerically indefinite (default 1e-10, grown 10x per
	// retry).
	Jitter float64

	// PointNoiseVar, when non-nil, adds per-observation noise variances
	// to the covariance diagonal on top of σn² — heteroscedastic
	// regression. This realizes the paper's §V-A proposal: experiments
	// backed by physical power meters enter the model with higher
	// confidence than IPMI-derived estimates, which carry extra
	// variance. Length must equal the number of observations; values
	// are in the (normalized, when Normalize is set) response units
	// squared.
	PointNoiseVar []float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.NoiseInit <= 0 {
		out.NoiseInit = 0.1
	}
	if out.NoiseFloor <= 0 {
		out.NoiseFloor = DefaultNoiseFloor
	}
	if out.NoiseCeil <= 0 {
		out.NoiseCeil = DefaultNoiseCeil
	}
	if out.NoiseFloor > out.NoiseCeil {
		out.NoiseFloor, out.NoiseCeil = out.NoiseCeil, out.NoiseFloor
	}
	if out.Restarts < 0 {
		out.Restarts = 0
	} else if out.Restarts == 0 {
		out.Restarts = 4
	}
	if out.Jitter <= 0 {
		out.Jitter = 1e-10
	}
	return out
}

// Prediction is the posterior predictive distribution at one input point
// (paper Eqs. 4–6): Gaussian with the given mean and standard deviation.
type Prediction struct {
	Mean float64
	SD   float64 // standard deviation of the latent function posterior
}

// CI returns the mean ± z·SD confidence interval bounds; z = 2 gives the
// ~95% interval drawn in the paper's figures.
func (p Prediction) CI(z float64) (lo, hi float64) {
	return p.Mean - z*p.SD, p.Mean + z*p.SD
}

// GP is a fitted Gaussian process regressor.
type GP struct {
	cfg  Config
	kern kernel.Kernel

	x *mat.Dense // training inputs, one point per row
	y mat.Vec    // training targets in model space (possibly normalized)

	yMean, yStd float64 // normalization constants (0, 1 when disabled)

	logSN float64 // log noise standard deviation

	chol   *mat.Cholesky // factor of Ky = K + σn² I (plus any jitter)
	alpha  mat.Vec       // Ky⁻¹ y
	lml    float64       // log marginal likelihood at the fitted hypers
	jitter float64       // jitter actually added to make Ky PD

	// lineage names the factorization this model descends from: every
	// factorization draws a new one, and only the bordered path of
	// UpdateWithPoint inherits it. Models of one lineage share kernel
	// hyperparameters and training rows up to the shorter, which is
	// what lets a KStar cache keep its columns across updates.
	lineage uint64
}

// lineages hands out lineage tokens; a token is never reused.
var lineages atomic.Uint64

// ErrNoData is returned when Fit is called without observations.
var ErrNoData = errors.New("gp: no training data")

// Fit builds a GP from inputs x (one point per row) and targets y,
// optimizing hyperparameters when cfg.Optimize is set. rng seeds the
// optimizer restarts and may be nil when Optimize is false or Restarts is 0.
func Fit(cfg Config, x *mat.Dense, y []float64, rng *rand.Rand) (*GP, error) {
	return FitCtx(context.Background(), cfg, x, y, rng)
}

// FitCtx is Fit with a context used only for observability: the fit's
// "gp.fit" span nests under any span already carried by ctx (e.g. the
// AL loop's "al.model.update"). ctx does not cancel the fit.
func FitCtx(ctx context.Context, cfg Config, x *mat.Dense, y []float64, rng *rand.Rand) (*GP, error) {
	ctx, span := obs.Start(ctx, "gp.fit")
	defer span.End()
	if x != nil {
		span.SetAttr("n", x.Rows())
	}
	g, err := buildGP(cfg, x, y)
	if err != nil {
		return nil, err
	}
	if g.cfg.Optimize {
		if err := g.optimizeHypers(ctx, rng); err != nil {
			return nil, err
		}
	}
	if err := g.factorize(); err != nil {
		return nil, err
	}
	return g, nil
}

// FitAtHypers builds a GP at an exact, previously fitted hyperparameter
// state — kernel log-hyperparameters plus log σn — without optimization
// or the log/exp clamping round trip of Fit. This is the
// checkpoint-resume and degradation-chain path: given the same data and
// the state captured from a fitted model (Kernel().Hyper(), LogNoise()),
// it reproduces that model's factorization bit for bit.
func FitAtHypers(cfg Config, x *mat.Dense, y []float64, kernelHyper []float64, logSN float64) (*GP, error) {
	cfg.Optimize = false
	g, err := buildGP(cfg, x, y)
	if err != nil {
		return nil, err
	}
	g.kern.SetHyper(kernelHyper)
	g.logSN = logSN
	if err := g.factorize(); err != nil {
		return nil, err
	}
	return g, nil
}

// buildGP validates inputs and assembles the unfitted model state shared
// by FitCtx and FitAtHypers: cloned inputs, (optionally normalized)
// targets, and the initial noise level.
func buildGP(cfg Config, x *mat.Dense, y []float64) (*GP, error) {
	if cfg.Kernel == nil {
		return nil, errors.New("gp: Config.Kernel is required")
	}
	if x == nil || x.Rows() == 0 {
		return nil, ErrNoData
	}
	if x.Rows() != len(y) {
		return nil, fmt.Errorf("gp: %d inputs but %d targets", x.Rows(), len(y))
	}
	if cfg.PointNoiseVar != nil && len(cfg.PointNoiseVar) != x.Rows() {
		return nil, fmt.Errorf("gp: %d per-point noise variances for %d observations",
			len(cfg.PointNoiseVar), x.Rows())
	}
	for _, v := range cfg.PointNoiseVar {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("gp: negative or NaN per-point noise variance %g", v)
		}
	}
	c := cfg.withDefaults()
	g := &GP{cfg: c, kern: c.Kernel, x: x.Clone(), yMean: 0, yStd: 1}
	ys := append(mat.Vec(nil), y...)
	if c.Normalize {
		g.yMean = mean(ys)
		g.yStd = stddev(ys, g.yMean)
		if g.yStd <= 0 || math.IsNaN(g.yStd) {
			g.yStd = 1
		}
		for i := range ys {
			ys[i] = (ys[i] - g.yMean) / g.yStd
		}
	}
	g.y = ys
	g.logSN = math.Log(clamp(c.NoiseInit, c.NoiseFloor, c.NoiseCeil))
	return g, nil
}

// Noise returns the fitted noise standard deviation σn (in model space:
// normalized units when cfg.Normalize is set).
func (g *GP) Noise() float64 { return math.Exp(g.logSN) }

// LogNoise returns log σn exactly as stored, for checkpointing: feeding
// it back through FitAtHypers reproduces the model without the
// exp(log(·)) rounding a Noise()/NoiseInit round trip would introduce.
func (g *GP) LogNoise() float64 { return g.logSN }

// ObservationNoise returns σn in the original response units (identical
// to Noise unless cfg.Normalize rescaled the targets).
func (g *GP) ObservationNoise() float64 { return g.yStd * math.Exp(g.logSN) }

// Kernel returns the (fitted) kernel; mutating it invalidates the GP.
func (g *GP) Kernel() kernel.Kernel { return g.kern }

// LML returns the log marginal likelihood at the fitted hyperparameters.
func (g *GP) LML() float64 { return g.lml }

// Jitter returns the diagonal jitter that was required to factorize Ky,
// zero in the common case.
func (g *GP) Jitter() float64 { return g.jitter }

// NumTrain returns the number of training points.
func (g *GP) NumTrain() int { return g.x.Rows() }

// TrainX returns the training inputs (aliased; do not mutate).
func (g *GP) TrainX() *mat.Dense { return g.x }

// cholesky picks the factorization kernel: the goroutine-parallel blocked
// algorithm for large systems on multicore machines, the plain kernel
// otherwise.
func cholesky(a *mat.Dense) (*mat.Cholesky, error) {
	return choleskyInto(new(mat.Cholesky), a)
}

// choleskyInto is cholesky with the plain kernel factorizing into dst's
// storage; the parallel kernel allocates its own.
func choleskyInto(dst *mat.Cholesky, a *mat.Dense) (*mat.Cholesky, error) {
	if a.Rows() >= 256 && runtime.GOMAXPROCS(0) > 2 {
		return mat.NewCholeskyParallel(a, 0)
	}
	return mat.NewCholeskyInto(dst, a)
}

// factorize computes Ky = K + σn² I, its Cholesky factor, α = Ky⁻¹y and
// the LML at the current hyperparameters.
func (g *GP) factorize() error {
	n := g.x.Rows()
	ky := kernel.Matrix(g.kern, g.x)
	sn2 := math.Exp(2 * g.logSN)
	ky.AddDiag(sn2)
	g.addPointNoise(ky)
	ch, jit, err := choleskyJitter(ky, g.cfg.Jitter)
	if err != nil {
		return fmt.Errorf("gp: covariance factorization failed: %w", err)
	}
	g.chol = ch
	g.jitter = jit
	g.lineage = lineages.Add(1)
	g.alpha = ch.SolveVec(g.y)
	g.lml = -0.5*mat.Dot(g.y, g.alpha) - 0.5*ch.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
	return nil
}

// addPointNoise adds the heteroscedastic per-observation variances to the
// covariance diagonal. Only the first min(n, len) entries apply, so a GP
// conditioned on extra observations treats them as homoscedastic.
func (g *GP) addPointNoise(ky *mat.Dense) {
	for i, v := range g.cfg.PointNoiseVar {
		if i >= ky.Rows() {
			break
		}
		ky.Set(i, i, ky.At(i, i)+v)
	}
}

// choleskyJitter mirrors mat.NewCholeskyJitter but routes through the
// adaptive factorization kernel.
func choleskyJitter(a *mat.Dense, initial float64) (*mat.Cholesky, float64, error) {
	ch, err := cholesky(a)
	if err == nil {
		return ch, 0, nil
	}
	jitter := initial
	if jitter <= 0 {
		jitter = 1e-10
	}
	for try := 0; try < 25; try++ {
		b := a.Clone()
		b.AddDiag(jitter)
		ch, err = cholesky(b)
		if err == nil {
			return ch, jitter, nil
		}
		jitter *= 10
	}
	return nil, jitter, fmt.Errorf("gp: factorization failed after jitter retries: %w", err)
}

// DynamicNoiseFloor implements the paper's proposed adaptive restriction
// σn ≥ c/√N (§V-B4), where n is the current number of observations. The
// floor relaxes as evidence accumulates.
func DynamicNoiseFloor(c float64, n int) float64 {
	if c <= 0 {
		c = 1
	}
	if n < 1 {
		n = 1
	}
	return c / math.Sqrt(float64(n))
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func mean(v mat.Vec) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func stddev(v mat.Vec, m float64) float64 {
	if len(v) < 2 {
		return 1
	}
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}
