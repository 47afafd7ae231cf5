// Package gp implements Gaussian Process Regression (GPR) as used by the
// paper (§III): a Bayesian regressor returning a full predictive
// distribution — mean and variance — at every input point, with
// hyperparameters fit by gradient ascent on the log marginal likelihood
// (LML, Eq. 12–13) under configurable noise-level bounds. It reproduces
// the 1-D/2-D fits of Figs. 3 and 5 and the LML landscapes of Fig. 4.
//
// The noise lower bound is load-bearing: §V-B4 (Fig. 7) shows that with
// σn allowed down to 1e-8 small training sets overfit (the GP believes
// its data are noise-free and the AL loop collapses), while σn ≥ 1e-1
// restores sane behaviour. Both the fixed floor and the paper's proposed
// dynamic c/√N floor (DynamicNoiseFloor) are provided.
//
// # Key types
//
//   - Config / Fit / FitCtx: model construction and LML fitting with
//     multi-restart L-BFGS; FitCtx only threads an observability
//     context.
//   - GP: the fitted model — Predict/PredictBatch for the posterior,
//     Condition for the O(n²) bordered-Cholesky online update,
//     Augmented for the general retrain path, LMLAt for landscapes.
//   - FitLOOCV: leave-one-out pseudo-likelihood model selection, the
//     §III comparison the paper defers (ablation A3).
//   - SparseGP / FitSparse / FitSparseHyper: the inducing-point model
//     tier (SoR mean, DTC variance) with an incremental
//     UpdateWithPoint, exact at m = n — the large-n path behind
//     al.LoopConfig.Model "sparse" (and ablation A5).
//   - AutoModel / FitAuto: size-based tier selection — dense below the
//     crossover, sparse above, with an optional held-out contest.
//
// # Observability
//
// Fits open "gp.fit" spans (with a "gp.hyperopt" child covering the
// optimizer); gp.lml.evals, gp.condition.ops and gp.predict.* count the
// high-frequency work. The sparse tier counts gp.sparse.fit.count and
// its three update paths (gp.sparse.update.rank1 / .grow / .refit) and
// gauges gp.sparse.inducing; AutoModel counts its tier picks under
// gp.automodel.*. See OBSERVABILITY.md.
//
// # Hyperparameter fit workspace
//
// A fit with Optimize set evaluates the LML and its gradient ~50–150
// times. Each evaluation writes into one workspace — Ky, one ∂K/∂θ_j per
// kernel hyperparameter, the Cholesky factor, Ky⁻¹ and α — that the
// fit allocates once and drops when it returns. The workspace is local
// to the fit: the GP keeps no reference to it, so a held model's heap
// does not grow, and evaluations through it return the same bits as
// evaluations on fresh buffers.
//
// # Scoring
//
// PredictBatch scores m rows without building the m×n cross-covariance.
// It streams the rows in blocks of four through one O(4n) scratch: the
// block's k* vectors stored interleaved, solved in place by one
// mat.TriPacked.ForwardSubst4Into pass. Besides its m-entry result, a
// call allocates that scratch and nothing else, and drops it on return;
// the GP holds no scoring buffer and no cache across calls. Each row's
// mean and SD are bit-identical to Predict at that row.
//
// # Concurrency contract
//
// A fitted *GP is immutable through its exported query methods
// (Predict, PredictBatch, LML, Noise, …) and safe for concurrent
// readers, with two exceptions: LMLAt temporarily mutates kernel
// hyperparameters and must not race with anything, and mutating the
// value returned by Kernel or TrainX invalidates the model. Fit,
// Condition and Augmented construct fresh models and may run
// concurrently with each other when given distinct inputs. The fit
// workspace changes none of this: each fit owns its own, and
// PredictBatch allocates its scratch per call (see Scoring), so
// concurrent PredictBatch calls on one model share no mutable state.
//
// A fitted *SparseGP (and the *AutoModel wrapping one) follows the same
// immutable-snapshot contract: every exported query method is
// read-only, and UpdateWithPoint never mutates its receiver — it
// returns a new model sharing no mutable state with the old one.
// Readers holding the previous snapshot (the AL scorer pool
// mid-iteration, a campaign status endpoint) may keep querying it,
// bitwise unchanged, while the loop goroutine builds and publishes the
// successor; swapping the visible model is the caller's
// synchronization problem (an atomic pointer suffices). This is the
// contract TestSparseConcurrentReadsDuringUpdate pins under -race.
package gp
