// Package cluster simulates the hardware substrate the paper measured
// on (§IV-A): a small CloudLab-style cluster of dual-socket Haswell
// nodes with DVFS, a roofline-flavoured execution-time model, a
// node-level power model, and an IPMI-style power-trace sampler with
// dropout from which per-job energy is estimated by numerical
// integration. It backs the Performance and Power datasets of Table I
// and the raw scatter of Figs. 1–2.
//
// Active Learning and GPR never see the hardware directly — only (X, y)
// samples — so what matters is that the simulated runtime/energy
// surfaces have the qualitative structure of the real ones: runtime
// linear in problem size on a log–log scale, strong-scaling efficiency
// losses with process count, power rising superlinearly with frequency,
// and heteroscedastic measurement noise.
//
// # Key types
//
//   - NodeSpec / Wisconsin: the machine model (cores, DVFS levels,
//     flops, bandwidth, power coefficients) with ExecTime, Power and
//     JobPower queries.
//   - Placement / Place: mapping np requested cores onto nodes.
//   - Work: the application's compute/memory/network demand, produced by
//     internal/hpgmg's work model.
//   - SampleTraceFunc / EnergyFromTrace: the IPMI-style
//     power sampler (jitter + dropout) and the trapezoid energy
//     integrator that rejects too-sparse traces, as the paper's
//     measurement pipeline did.
//
// # Observability
//
// cluster.exec.count counts simulated executions — the "experiments"
// whose cost AL is meant to amortize — and cluster.power.*,
// cluster.energy.estimates and cluster.trace.sparse count the power
// pipeline's work (see OBSERVABILITY.md).
//
// # Concurrency contract
//
// NodeSpec, Placement and Work are immutable values: all methods and
// package functions are safe for concurrent use, provided each
// goroutine supplies its own *rand.Rand to the trace samplers.
package cluster
