// Package al implements the paper's Active Learning framework for
// performance analysis — pool-based experiment selection driven by the
// predictive distribution of a Gaussian process regressor (§IV–§V,
// Figs. 6–8) — grown into a strategy zoo with a named registry and an
// OpenAL-style comparative evaluation harness.
//
// # Strategy taxonomy
//
// Every selection rule implements Strategy; rules that need the fitted
// GP itself (not just per-candidate marginals) also implement
// ModelAwareStrategy. NewStrategy resolves registry names to
// configured strategies, StrategyNames lists them, and STRATEGIES.md
// documents each one (formula, paper anchor, cost model, RNG contract,
// when to use). The families:
//
// Paper strategies (§V-B):
//
//   - VarianceReduction ("variance-reduction"): argmax σ — pure
//     uncertainty reduction (Fig. 6).
//   - CostEfficiency ("cost-efficiency"): argmax σ − μ on log responses
//     (Eq. 14) — the variance/cost ratio behind Fig. 8's 38% headline.
//   - CostExponent ("cost-exponent"): σ − γ·μ, the ablation axis
//     between the two.
//
// Baselines and randomized rules:
//
//   - Random ("random"): uniform selection — the fixed-design baseline.
//   - EpsilonGreedy ("eps-greedy"): ε-uniform exploration around any
//     base rule.
//   - ThompsonVariance ("thompson"): joint posterior draw, argmax
//     |f̃ − μ| — stochastic variance reduction.
//   - RunEMCM: Cai et al.'s OLS-ensemble Expected Model Change
//     Maximization, kept as the §III comparison baseline (its own
//     loop, not a registry entry).
//
// Ensemble and diversity strategies (the zoo beyond the paper):
//
//   - QBC ("qbc", "qbc-cost"): query-by-committee — K GPs fit on
//     bootstrap resamples (optionally hyper-perturbed) of the live
//     training set; selection maximizes committee disagreement, minus
//     γ·mean in the cost-aware form.
//   - EMCMGradient ("emcm-grad"): closed-form GP analogue of EMCM,
//     ln σ + ln(1+‖x‖) − γ·μ, inside the standard loop.
//   - Diversity ("diversity"): σ + λ·distance-to-nearest-training-point
//     — sequential k-center exploration.
//
// Batch mode: with LoopConfig.BatchSize k > 1 each iteration of the
// one session picks k distinct points with BatchSelect (kriging
// believer: each pick conditions the model on a fantasy observation at
// its own mean) for experiments run in parallel (§VI).
//
// # Key types
//
//   - Strategy / ModelAwareStrategy: acquisition rules over Candidate
//     scores; NewStrategy/StrategyNames: the registry.
//   - Session: the one AL loop body, as ask/tell — Next selects a
//     point, Tell reports its measurement. It owns the retry, guard,
//     skip, budget and convergence rules; every entry point below is a
//     Next → measure → Tell driver over it.
//   - LoopConfig / Run: one AL realization over a dataset Partition
//     (Initial rows enter measured, Active is the pool, Test fills
//     RMSE and Coverage); Resume continues one from its Checkpoint.
//     Session.Snapshot and RestoreSession export and rebuild a
//     NewSession session the same way (served campaign snapshots).
//     IterationRecord carries the §V-B3 monitoring quantities per step.
//   - RunOnline: the loop against live experiments (§VI) through an
//     Oracle; internal/serve campaigns drive a Session directly.
//   - LoopConfig.BatchSize / BatchSelect: batch mode, k picks per
//     iteration handed out one at a time by Next, every pick recorded
//     under its iteration (ablation A4 adds the scheduler accounting).
//
// # Regressor contract
//
// The loop is generic over its model: the Session and every zoo
// strategy consume the Regressor interface — Predict / PredictBatch /
// UpdateWithPoint / Fingerprint / NumTrain — not *gp.GP. Three tiers
// implement it, selected by LoopConfig.Model ("dense", the default;
// "sparse"; "auto") and tuned by LoopConfig.ModelOptions (inducing
// count, hyper-fit subsample, crossover, jitter, growth radius):
//
//   - dense wraps *gp.GP (exact, O(n³) refit / O(n²) update);
//   - sparse wraps *gp.SparseGP (inducing-point, O(n·m²) refit / O(m²)
//     update, exact at m = n) — the tier for campaigns past ~10⁴
//     points;
//   - auto wraps *gp.AutoModel, which resolves dense below the
//     crossover and sparse above it.
//
// The interface carries the loop's three obligations. UpdateWithPoint
// must return a NEW model (immutable snapshots — the scorer pool keeps
// reading the old one; see the gp package concurrency contract) and
// must fall back to a full refit instead of failing when the
// incremental path degenerates. Fingerprint must commit to the full
// predictive state, so two runs agree iff their models do (the
// checkpoint-resume and serve-trace identity tests compare fingerprint
// traces). NumTrain reports the training-set size used for the
// dynamic noise floor and tier decisions. Optional capabilities
// (NoiseModel, LikelihoodModel, TrainDataModel, PosteriorSampler) are
// discovered by type assertion; strategies needing one — Thompson
// sampling, QBC's bootstrap refits, checkpoint recipes — degrade or
// error out explicitly when the model lacks it. UnwrapGP recovers
// the *gp.GP behind a dense model.
//
// # Evaluation harness
//
// internal/experiments (EvalGrid / RunEval) ranks registry strategies
// on a strategy × dataset × noise-model grid, executed end to end
// through the internal/serve campaign service; cmd/aleval is the CLI.
// Use it to decide which zoo member fits a new workload before
// committing an experiment budget.
//
// # Observability
//
// Session.Next opens one "al.iteration" span per step with
// "al.model.update", "al.score" and "al.select" children, and feeds the
// al.* counters; for every driver (Run, Resume, RunOnline, a served
// campaign) the span covers Next only, never the measurement.
// RunOnline times each oracle call as "al.experiment"; every selection
// increments al.strategy.select.<name>, and QBC counts committee fits
// under al.strategy.qbc.*. See OBSERVABILITY.md for the full catalog.
//
// # Concurrency contract
//
// Strategies are stateless values and safe for concurrent use. A
// Session is not: each realization owns one, with its *rand.Rand, and
// Run, Resume and RunOnline step theirs on the calling goroutine, so
// run concurrent realizations with separate arguments (as al.RunBatch
// does internally).
//
// # Scorer pool
//
// Candidate scoring fans out over a worker pool by default
// (LoopConfig.ScoreWorkers = 0 → SetDefaultScoreWorkers, falling back to
// runtime.GOMAXPROCS). The pool's contract:
//
//   - Workers only *read* the fitted GP — gp.Predict/PredictBatch on a
//     fitted model are safe for concurrent use, and one model may back
//     many concurrent scoring passes.
//   - Each worker owns a contiguous chunk of the candidate matrix and
//     writes predictions into its own index range of the shared output
//     slice; no two workers touch the same element, so no locking is
//     needed and the race detector stays quiet.
//   - Per-candidate scores never depend on other candidates, so chunking
//     cannot change any floating-point result: serial (ScoreWorkers = 1)
//     and parallel runs produce byte-identical selection traces for a
//     fixed seed. The argmax over scores always runs serially. Diversity
//     reuses the same chunked pattern for its distance scan.
//   - The *rand.Rand is only touched by the (serial) strategy selection
//     and model fitting, never from scorer workers. QBC's committee
//     construction draws from the loop RNG on that serial path, with a
//     fixed draw count per selection (see the QBC doc comment), so
//     checkpoint/resume and serial-vs-parallel identity both hold for
//     every zoo member.
package al
