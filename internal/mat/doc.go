// Package mat provides the dense linear algebra used throughout the
// repository: matrices, vectors, goroutine-parallel products, Cholesky /
// LU / QR / eigen factorizations, and triangular solves. It is a
// deliberately small, stdlib-only kernel sized for Gaussian-process
// workloads (dense symmetric positive-definite systems with a few
// thousand unknowns) — the computational substrate behind every GP fit
// in the paper's §III machinery.
//
// # Key types
//
//   - Dense / Vec: row-major matrix and vector with raw-slice access for
//     hot loops.
//   - Cholesky: A = L·Lᵀ with SolveVec/LogDet/QuadForm, plus Extended,
//     the O(n²) bordered update behind online GP conditioning.
//     NewCholeskyParallel is the goroutine-parallel blocked variant for
//     large systems; NewCholeskyJitter retries with diagonal jitter for
//     nearly singular covariances. NewCholeskyInto, SolveVecInto and
//     InverseInto write into caller-owned storage — the GP
//     hyperparameter fit reuses one set across its LML evaluations — and
//     the allocating forms are thin wrappers over them.
//   - TriPacked: a Cholesky factor in packed storage, the form a fitted
//     GP keeps. ForwardSubst4Into solves four right-hand sides in one
//     pass over L, stored interleaved (element i of lane r at 4i+r) so
//     each element of L feeds four independent accumulator chains. Each
//     lane performs exactly ForwardSubstInto's operations in the same
//     order, so its result is bit-identical; GP scoring relies on that.
//   - Mul / MulT / SyrkT / MulVec and friends: parallel products used by
//     kernels and predictions.
//
// # Observability
//
// Every factorization counts itself: mat.cholesky.count,
// mat.cholesky.duration, mat.cholesky.size and
// mat.cholesky.parallel.count (see OBSERVABILITY.md). Cholesky calls are
// the O(n³) unit of account for the cost argument the paper makes —
// whatever an AL iteration does, it shows up here.
//
// # Concurrency contract
//
// Dense and Vec are plain data with no internal locking: concurrent
// reads are safe, concurrent writes (or a write racing reads) are the
// caller's responsibility. A constructed *Cholesky is immutable and safe
// for concurrent use. NewCholeskyParallel manages its own worker
// goroutines and is safe to call from multiple goroutines on distinct
// inputs.
package mat
