// Package core implements Dysim — Dynamic perception for seeding in
// target markets — the approximation algorithm for IMDPP (Sec. IV of
// the paper), with its three phases:
//
//   - TMI (Target Market Identification): selects nominees by marginal
//     cost-performance ratio (MCP, Procedure 2), clusters them
//     (Procedure 3), expands clusters into target markets via MIOA,
//     and prioritises overlapping markets by Antagonistic Extent
//     (Procedure 4).
//   - DRE (Dynamic Reachability Evaluation): ranks each market's items
//     by DR = PI + RI (Eq. 1, 9, 10) under the post-promotion expected
//     perception.
//   - TDSI (Timing Determination by Substantial Inﬂuence): assigns each
//     nominee the promotional timing in [t̂, min(t̂+1, ΣTτ)] with the
//     largest SI = MA + (T−t+1)/T·ML (Eq. 2, 11, 12).
//
// Options expose the ablations of Sec. VI-C (w/o TM, w/o IP), the
// market-order metrics of Sec. VI-D (AE/PF/SZ/RMS/RD), the θ
// sensitivity of Sec. VI-G, and the adaptive mode of Sec. V-D.
//
// All σ/π evaluation flows through the Estimator backend interface
// (estimator.go). Two result classes exist behind it. The exact class
// — the Monte-Carlo engine, in process by default or fed by the
// remote-worker fleet of internal/shard via Options.Backend — is
// bit-identical whichever member serves it (DESIGN.md §3, §7), which
// is why Backend-as-constructor stays out of the request hash. The
// approximate class is the reverse-reachable sketch estimator of
// internal/sketch, selected by Options.Epsilon > 0 (or explicitly via
// SketchBackend): it answers σ within ε·n·W with probability 1 − δ
// from a precomputed coverage index (DESIGN.md §9). Epsilon and Delta
// change the answer itself, so — unlike Backend — they ARE
// result-relevant and hash into their own cache lane; Validate
// rejects ε ≤ 0, δ ∉ (0,1) and δ without ε, so an absent epsilon
// always means exact. SolveCtx/SolveAdaptiveCtx thread cancellation
// through every selection loop and the backend.
package core
