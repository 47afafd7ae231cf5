// Package kernel implements covariance functions for Gaussian process
// regression, together with analytic gradients with respect to
// log-hyperparameters, as required for Bayesian model selection by
// gradient ascent on the log marginal likelihood (Rasmussen & Williams
// ch. 5; paper §III, Eq. 11 is the RBF the paper uses throughout).
//
// All hyperparameters are exposed in log space: positivity is automatic
// and gradient ascent is much better conditioned when length scales and
// amplitudes span orders of magnitude, as they do for performance data.
//
// # Key types
//
//   - Kernel: the covariance interface — Eval, Hyper/SetHyper in log
//     space, analytic Grad per hyperparameter, and box Bounds for the
//     optimizer.
//   - NewRBF (Eq. 11), NewMatern32/NewMatern52, NewRationalQuadratic,
//     NewPeriodic, NewARD (per-dimension length scales for the full
//     3-variable model), NewConstant/NewWhite/NewLinear, and the
//     NewSum/NewProduct/NewFixed composites.
//   - Matrix / MatrixGrad / CrossMatrix: Gram-matrix assembly used by
//     internal/gp's fit and predict paths; each is an allocating wrapper
//     over its Into variant, which writes into caller-owned buffers.
//
// # Implementing a kernel
//
// Eval and EvalGrad run once per pair of points, so a kernel derives
// every value that depends on θ alone (l = exp(log l), σf² =
// exp(2 log σf), …) once, in its constructor and in SetHyper, and the
// per-pair code reads the cached values. Use a cached value inside the
// same expression the per-call code would evaluate, so caching changes
// no output bit; TestCachedHyperBitIdentical pins this for every
// family. SetHyper is the only way θ changes, and a kernel behind a
// fitted GP must not be mutated at all: the model's factor was computed
// at its θ.
//
// # Concurrency contract
//
// Eval and Matrix assembly are safe for concurrent readers, but kernels
// carry mutable hyperparameters: SetHyper (called by the GP optimizer)
// must not race with any other use of the same kernel instance. Give
// each concurrently fitted GP its own kernel (LoopConfig.NewKernel
// exists for exactly this).
package kernel
