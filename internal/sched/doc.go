// Package sched simulates the SLURM batch environment the paper used to
// run HPGMG-FE job sweeps (§IV): a discrete-event scheduler over a
// fixed pool of nodes, FIFO with optional EASY backfill, producing
// per-job accounting records equivalent to `sacct` output. The batched
// AL ablation (A4) runs its selected experiments through this scheduler
// to account for queueing cost, the §VI scheduling concern.
//
// # Key types
//
//   - Config / New / Scheduler: the simulated cluster (node count,
//     cores per node, queueing Policy).
//   - Job / Submit: one batch submission with core request, walltime
//     estimate and an exactly-once Run callback producing the actual
//     runtime.
//   - Record / Drain: the accounting rows (submit/start/end, state
//     COMPLETED or TIMEOUT) the dataset layer consumes.
//
// # Observability
//
// Submissions and completions feed sched.jobs.* counters, the
// sched.job.wait and sched.job.elapsed histograms (simulated seconds,
// value buckets rather than wall-clock timer buckets), and the
// sched.makespan gauge; job lifecycle events are emitted to the JSONL
// sink (see OBSERVABILITY.md).
//
// # Concurrency contract
//
// A *Scheduler is single-threaded simulation state: Submit and Drain
// must not be called concurrently. Distinct Scheduler instances are
// independent and may run in parallel (as the A4 ablation does per
// strategy).
package sched
