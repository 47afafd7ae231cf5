package gp

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/obs"
)

// Sparse-tier metrics (see OBSERVABILITY.md): fits, and the three
// incremental-update outcomes — rank-one factor update, inducing-set
// growth, and the degenerate full-refit fallback. The inducing gauge
// tracks the current m of the most recently built model.
var (
	sparseFits     = obs.C("gp.sparse.fit.count")
	sparseRank1    = obs.C("gp.sparse.update.rank1")
	sparseGrow     = obs.C("gp.sparse.update.grow")
	sparseRefit    = obs.C("gp.sparse.update.refit")
	sparseInducing = obs.G("gp.sparse.inducing")
)

// SparseGP is an inducing-point approximation of GP regression (Subset of
// Regressors mean with the DTC variance correction), reducing the cost of
// a fit from O(n³) to O(n·m²) for m ≪ n inducing points. It addresses the
// paper's closing future-work item: "we plan to investigate computational
// requirements of competing GPR and AL algorithms and consider available
// optimizations" — this is the standard optimization for AL on datasets
// with thousands of candidate experiments.
//
// With U the inducing set, Kmm = k(U, U), Knm = k(X, U):
//
//	A   = Kmm + σn⁻² Knmᵀ Knm
//	μ*  = σn⁻² k*mᵀ A⁻¹ Knmᵀ y
//	σ*² = k** − k*mᵀ Kmm⁻¹ k*m + k*mᵀ A⁻¹ k*m   (DTC)
//
// When the inducing set equals the full training set these reduce exactly
// to the dense GP equations — the property the equivalence tests pin
// down, from single predictions up to whole AL campaigns.
//
// Like the dense GP, a fitted *SparseGP is an immutable snapshot: every
// query method only reads, and UpdateWithPoint returns a new model
// sharing the unchanged factors, so concurrent Predict/PredictBatch
// calls may race an update on another goroutine freely.
type SparseGP struct {
	kern kernel.Kernel
	u    *mat.Dense // inducing inputs, one per row
	x    *mat.Dense // training inputs, one per row
	y    mat.Vec    // training targets in model space (possibly normalized)

	cholK *mat.Cholesky
	cholA *mat.Cholesky
	beta  mat.Vec // A⁻¹ Knmᵀ y / σn²
	kty   mat.Vec // Knmᵀ y, maintained incrementally
	logSN float64

	jitter float64 // diagonal stabilizer added to Kmm
	growD2 float64 // squared inducing radius: farther points grow U
	lml    float64 // DTC log marginal likelihood

	yMean, yStd float64
}

// sparseMaxTarget bounds accepted |y|: beyond it the weight solve and
// prediction dot products can overflow float64 into NaN even though every
// input is finite, so such targets are rejected up front (fit and update).
const sparseMaxTarget = 1e150

// SparseConfig configures a sparse fit.
type SparseConfig struct {
	// Kernel is the covariance function; required. Hyperparameters are
	// used as-is (fit them on a subsample with Fit first if needed).
	Kernel kernel.Kernel
	// Noise is the observation noise standard deviation σn
	// (default 0.1).
	Noise float64
	// Inducing is the number of inducing points m (default min(n, 64)).
	Inducing int
	// Normalize standardizes y before fitting.
	Normalize bool
	// Jitter stabilizes the Kmm factorization (default 1e-8, scaled by
	// the matrix magnitude).
	Jitter float64
	// GrowRadius overrides the incremental-update growth threshold: a
	// new observation farther than this (Euclidean) from every inducing
	// point extends the inducing set instead of rank-one-updating the
	// factors. Zero derives the threshold from the farthest-point
	// sampling radius at fit time (zero when m = n, so the m = n tier
	// stays exact under updates). Negative disables growth entirely.
	GrowRadius float64
}

// FitSparse builds a sparse GP over (x, y). Inducing inputs are chosen by
// farthest-point sampling seeded from rng (nil rng starts from row 0 —
// the deterministic choice checkpoint resume depends on), which spreads
// them across the occupied input space. Non-finite inputs or targets are
// rejected with an error.
func FitSparse(cfg SparseConfig, x *mat.Dense, y []float64, rng *rand.Rand) (*SparseGP, error) {
	if cfg.Kernel == nil {
		return nil, errors.New("gp: SparseConfig.Kernel is required")
	}
	if x == nil || x.Rows() == 0 {
		return nil, ErrNoData
	}
	n := x.Rows()
	if n != len(y) {
		return nil, fmt.Errorf("gp: %d inputs but %d targets", n, len(y))
	}
	for _, v := range x.Raw() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("gp: sparse fit rejects non-finite inputs")
		}
	}
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > sparseMaxTarget {
			return nil, errors.New("gp: sparse fit rejects non-finite or overflow-range targets")
		}
	}
	m := cfg.Inducing
	if m <= 0 {
		m = 64
	}
	if m > n {
		m = n
	}
	noise := cfg.Noise
	if noise <= 0 {
		noise = 0.1
	}
	jitter := cfg.Jitter
	if jitter <= 0 {
		jitter = 1e-8
	}

	yMean, yStd := 0.0, 1.0
	ys := append(mat.Vec(nil), y...)
	if cfg.Normalize {
		yMean = mean(ys)
		yStd = stddev(ys, yMean)
		if math.IsNaN(yMean) || math.IsInf(yMean, 0) || math.IsInf(yStd, 0) {
			// Finite targets whose moments overflow float64: no
			// normalization can represent them.
			return nil, errors.New("gp: sparse fit cannot normalize targets of this magnitude")
		}
		if yStd <= 0 || math.IsNaN(yStd) {
			yStd = 1
		}
		for i := range ys {
			ys[i] = (ys[i] - yMean) / yStd
		}
	}

	idx, radius2 := farthestPointSample(x, m, rng)
	u := mat.New(m, x.Cols())
	for i, j := range idx {
		copy(u.RawRow(i), x.RawRow(j))
	}
	growD2 := radius2
	if cfg.GrowRadius > 0 {
		growD2 = cfg.GrowRadius * cfg.GrowRadius
	} else if cfg.GrowRadius < 0 {
		growD2 = math.Inf(1)
	}

	s := &SparseGP{
		kern: cfg.Kernel, u: u, x: x.Clone(), y: ys,
		logSN: math.Log(noise), jitter: jitter, growD2: growD2,
		yMean: yMean, yStd: yStd,
	}
	if err := s.assemble(); err != nil {
		return nil, err
	}
	if !finiteVec(s.beta) {
		// Factorization succeeded but the weights overflowed (extreme
		// target or noise magnitudes): reject rather than hand back a
		// model whose predictions would be NaN.
		return nil, errors.New("gp: sparse fit produced non-finite weights")
	}
	sparseFits.Inc()
	sparseInducing.Set(float64(m))
	return s, nil
}

// finiteVec reports whether every entry of v is finite.
func finiteVec(v mat.Vec) bool {
	for _, e := range v {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return false
		}
	}
	return true
}

// FitSparseAtHypers builds a sparse GP at an exact, previously fitted
// hyperparameter state — kernel log-hyperparameters plus log σn — the
// checkpoint-resume path mirroring FitAtHypers: with the same data and
// a nil-rng (deterministic) inducing selection it reproduces the model
// a live fit at those hypers built, bit for bit.
func FitSparseAtHypers(cfg SparseConfig, x *mat.Dense, y []float64, kernelHyper []float64, logSN float64) (*SparseGP, error) {
	if cfg.Kernel == nil {
		return nil, errors.New("gp: SparseConfig.Kernel is required")
	}
	cfg.Kernel.SetHyper(kernelHyper)
	cfg.Noise = math.Exp(logSN)
	s, err := FitSparse(cfg, x, y, nil)
	if err != nil {
		return nil, err
	}
	s.logSN = logSN // exact, no exp/log round trip
	if err := s.assemble(); err != nil {
		return nil, err
	}
	if !finiteVec(s.beta) {
		return nil, errors.New("gp: sparse fit produced non-finite weights")
	}
	return s, nil
}

// assemble (re)builds the factors, weights and DTC likelihood from the
// stored kernel/inducing/training state — the O(n·m²) core of a fit,
// also reused by the inducing-growth and degenerate-refit update paths.
func (s *SparseGP) assemble() error {
	kmm := kernel.Matrix(s.kern, s.u)
	kmm.AddDiag(s.jitter * (1 + kmm.MaxAbs()))
	cholK, _, err := mat.NewCholeskyJitter(kmm, 0, 20)
	if err != nil {
		return fmt.Errorf("gp: sparse Kmm factorization: %w", err)
	}
	s.cholK = cholK

	// Knm assembly through the cache-blocked distance path when the
	// kernel supports it; SyrkTBlocked streams the tall n×m panel.
	knm := kernel.CrossMatrixDist(s.kern, s.x, s.u)
	sn2 := math.Exp(2 * s.logSN)
	a := mat.SyrkTBlocked(knm)
	a.Scale(1 / sn2)
	a.Add(kmm)
	cholA, _, err := mat.NewCholeskyJitter(a, 0, 20)
	if err != nil {
		return fmt.Errorf("gp: sparse A factorization: %w", err)
	}
	s.cholA = cholA

	s.kty = knm.MulVecT(s.y)
	s.refreshWeights(sn2)
	return nil
}

// refreshWeights recomputes β and the DTC log marginal likelihood from
// the current factors and Knmᵀy — O(m²) plus one O(n) dot product.
func (s *SparseGP) refreshWeights(sn2 float64) {
	s.beta = s.cholA.SolveVec(s.kty)
	for i := range s.beta {
		s.beta[i] /= sn2
	}
	// DTC marginal likelihood of y under N(0, Qnn + σn²I) via the
	// matrix inversion lemma: the quadratic form is
	// (yᵀy − ktyᵀβ)/σn² and the log determinant is
	// 2n·log σn + log det A − log det Kmm.
	n := float64(len(s.y))
	quad := (mat.Dot(s.y, s.y) - mat.Dot(s.kty, s.beta)) / sn2
	logdet := n*math.Log(sn2) + s.cholA.LogDet() - s.cholK.LogDet()
	s.lml = -0.5*quad - 0.5*logdet - 0.5*n*math.Log(2*math.Pi)
}

// UpdateWithPoint returns a new sparse GP incorporating one additional
// observation (x, y) at the current hyperparameters, in O(n·m) worst
// case:
//
//   - when x lies within the inducing radius of U, the factor of
//     A = Kmm + σn⁻²KnmᵀKnm receives a rank-one update with the vector
//     k(U,x)/σn (O(m²)), Knmᵀy is updated in place, and β is re-solved;
//   - when x is farther than the inducing radius from every inducing
//     point, U grows by x and the factors are rebuilt at unchanged
//     hyperparameters (O(n·m²)) — the farthest-point growth rule that
//     keeps the approximation anchored where data actually lands;
//   - when the rank-one update degenerates numerically, the model falls
//     back to the same full re-assembly, mirroring the dense
//     degenerate-pivot contract of (*GP).UpdateWithPoint.
//
// The receiver is never modified; unchanged factors are shared between
// snapshots, so readers of the old model are undisturbed.
func (s *SparseGP) UpdateWithPoint(x []float64, y float64) (*SparseGP, error) {
	if len(x) != s.u.Cols() {
		return nil, fmt.Errorf("gp: sparse UpdateWithPoint dim %d, model trained on %d", len(x), s.u.Cols())
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("gp: sparse update rejects non-finite inputs")
		}
	}
	if math.IsNaN(y) || math.IsInf(y, 0) || math.Abs(y) > sparseMaxTarget {
		return nil, errors.New("gp: sparse update rejects non-finite or overflow-range targets")
	}

	n := s.x.Rows()
	nx := mat.New(n+1, s.x.Cols())
	copy(nx.Raw(), s.x.Raw())
	copy(nx.RawRow(n), x)
	yn := (y - s.yMean) / s.yStd
	ny := append(s.y.Clone(), yn)

	out := &SparseGP{
		kern: s.kern, u: s.u, x: nx, y: ny,
		cholK: s.cholK, logSN: s.logSN, jitter: s.jitter, growD2: s.growD2,
		yMean: s.yMean, yStd: s.yStd,
	}

	// Distance from the new point to the inducing set decides the path.
	minD2 := math.Inf(1)
	for i := 0; i < s.u.Rows(); i++ {
		if d2 := sqDistVec(x, s.u.RawRow(i)); d2 < minD2 {
			minD2 = d2
		}
	}
	if minD2 > s.growD2 {
		sparseGrow.Inc()
		u2 := mat.New(s.u.Rows()+1, s.u.Cols())
		copy(u2.Raw(), s.u.Raw())
		copy(u2.RawRow(s.u.Rows()), x)
		out.u = u2
		if err := out.assemble(); err != nil {
			return nil, err
		}
		sparseInducing.Set(float64(u2.Rows()))
		return out, nil
	}

	m := s.u.Rows()
	km := make(mat.Vec, m)
	for i := 0; i < m; i++ {
		km[i] = s.kern.Eval(x, s.u.RawRow(i))
	}
	sn := math.Exp(s.logSN)
	sn2 := sn * sn
	v := make(mat.Vec, m)
	for i, kv := range km {
		v[i] = kv / sn
	}
	cholA2 := s.cholA.RankOneUpdate(v)
	ok := true
	for i := 0; i < m; i++ {
		if d := cholA2.At(i, i); d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			ok = false
			break
		}
	}
	if ok {
		out.cholA = cholA2
		out.kty = s.kty.Clone()
		for i, kv := range km {
			out.kty[i] += kv * yn
		}
		out.refreshWeights(sn2)
		ok = finiteVec(out.beta)
	}
	if !ok {
		// Degenerate rank-one update (bad factor pivot or overflowed
		// weights): rebuild the factors from scratch at unchanged
		// hyperparameters rather than failing the caller — the sparse
		// mirror of the dense bordered-pivot fallback.
		sparseRefit.Inc()
		if err := out.assemble(); err != nil {
			return nil, fmt.Errorf("gp: sparse incremental update and refit both failed: %w", err)
		}
		return out, nil
	}
	sparseRank1.Inc()
	return out, nil
}

// farthestPointSample picks m row indices spreading over the inputs:
// start from a random row (row 0 with a nil rng), then repeatedly take
// the row farthest from the chosen set. The second return is the squared
// covering radius at stop — max over rows of the distance to the chosen
// set — which seeds the incremental-update growth threshold (zero when
// every row was chosen).
func farthestPointSample(x *mat.Dense, m int, rng *rand.Rand) ([]int, float64) {
	n := x.Rows()
	start := 0
	if rng != nil {
		start = rng.Intn(n)
	}
	chosen := []int{start}
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = sqDistRows(x, i, start)
	}
	minDist[start] = -1 // never re-pick a chosen row
	for len(chosen) < m {
		best, bestD := -1, math.Inf(-1)
		for i, d := range minDist {
			if d > bestD {
				best, bestD = i, d
			}
		}
		chosen = append(chosen, best)
		minDist[best] = -1
		for i := range minDist {
			if minDist[i] < 0 {
				continue
			}
			if d := sqDistRows(x, i, best); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	var radius2 float64
	for _, d := range minDist {
		if d > radius2 {
			radius2 = d
		}
	}
	return chosen, radius2
}

func sqDistRows(x *mat.Dense, i, j int) float64 {
	return sqDistVec(x.RawRow(i), x.RawRow(j))
}

func sqDistVec(a, b []float64) float64 {
	var s float64
	for d, av := range a {
		diff := av - b[d]
		s += diff * diff
	}
	return s
}

// NumInducing returns the inducing-set size m.
func (s *SparseGP) NumInducing() int { return s.u.Rows() }

// NumTrain returns the number of training points.
func (s *SparseGP) NumTrain() int { return s.x.Rows() }

// TrainX returns the training inputs (aliased; do not mutate).
func (s *SparseGP) TrainX() *mat.Dense { return s.x }

// TrainY returns the training targets in original (unnormalized) units.
func (s *SparseGP) TrainY() []float64 {
	out := make([]float64, len(s.y))
	for i, v := range s.y {
		out[i] = s.yMean + s.yStd*v
	}
	return out
}

// Kernel returns the kernel; mutating it invalidates the model.
func (s *SparseGP) Kernel() kernel.Kernel { return s.kern }

// Noise returns the noise standard deviation σn in model space.
func (s *SparseGP) Noise() float64 { return math.Exp(s.logSN) }

// LogNoise returns log σn exactly as stored, for checkpointing.
func (s *SparseGP) LogNoise() float64 { return s.logSN }

// ObservationNoise returns σn in the original response units.
func (s *SparseGP) ObservationNoise() float64 { return s.yStd * math.Exp(s.logSN) }

// LML returns the DTC log marginal likelihood — the sparse counterpart
// of the dense LML, comparable across model tiers on the same data.
func (s *SparseGP) LML() float64 { return s.lml }

// Fingerprint returns a deterministic 64-bit digest of the fitted model
// state, mirroring (*GP).Fingerprint: kernel log-hyperparameters,
// log σn, normalization constants, and the exact bit patterns of the
// inducing inputs, training inputs and model-space targets. Equal
// fingerprints mean bit-identical predictions, which is what the
// serving layer's resume-integrity check compares.
func (s *SparseGP) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, v := range s.kern.Hyper() {
		put(v)
	}
	put(s.logSN)
	put(s.yMean)
	put(s.yStd)
	put(float64(s.u.Rows()))
	for _, v := range s.u.Raw() {
		put(v)
	}
	put(float64(s.x.Rows()))
	for _, v := range s.x.Raw() {
		put(v)
	}
	for _, v := range s.y {
		put(v)
	}
	return h.Sum64()
}

// Predict returns the approximate posterior at x.
func (s *SparseGP) Predict(x []float64) Prediction {
	if len(x) != s.u.Cols() {
		panic(fmt.Sprintf("gp: sparse Predict dim %d, model has %d", len(x), s.u.Cols()))
	}
	m := s.u.Rows()
	km := make(mat.Vec, m)
	for i := 0; i < m; i++ {
		km[i] = s.kern.Eval(x, s.u.RawRow(i))
	}
	mu := mat.Dot(km, s.beta)
	// DTC variance: k** − k*ᵀKmm⁻¹k* + k*ᵀA⁻¹k*.
	prior := s.kern.Eval(x, x)
	variance := prior - s.cholK.QuadForm(km) + s.cholA.QuadForm(km)
	if math.IsNaN(variance) || math.IsInf(variance, 0) {
		// The two correction terms cancelled past float precision
		// (near-singular Kmm): keep the prior bound — conservative for
		// the AL loop, which treats high SD as "worth measuring".
		variance = prior
	}
	if variance < 0 {
		variance = 0
	}
	return Prediction{
		Mean: s.yMean + s.yStd*mu,
		SD:   s.yStd * math.Sqrt(variance),
	}
}

// PredictBatch evaluates the sparse posterior at every row of xs.
func (s *SparseGP) PredictBatch(xs *mat.Dense) []Prediction {
	predictBatches.Inc()
	predictPoints.Add(int64(xs.Rows()))
	out := make([]Prediction, xs.Rows())
	for i := range out {
		out[i] = s.Predict(xs.RawRow(i))
	}
	return out
}
