// Package shard scales σ/π estimation across worker processes — the
// distributed face of the batch engine (DESIGN.md §7).
//
// The Monte-Carlo (group × sample) grid of DESIGN.md §3 is
// partitionable by global sample index at zero accuracy cost: sample i
// of every candidate draws from the stream Split(i) of the master
// seed, so which process simulates a sample cannot change its outcome,
// and the coordinator can re-assemble per-sample outcomes from any
// partition of [0,M) and reduce them in global sample order with the
// single-process engine's own arithmetic. Sharded estimation is
// therefore bit-identical to local estimation — pinned by golden
// tests — which in turn makes shard dispatch idempotent: a failed or
// slow shard can be re-dispatched to any other worker (or computed
// locally) without a coordination protocol.
//
// The package provides:
//
//   - Plan: the contiguous sample-range planner.
//   - Worker: the server side (mounted by `imdppd -worker`) — frame
//     streams upgraded from GET /v1/shard/estimate carrying
//     content-addressed problem uploads (a problem ships once and is
//     referenced by its Problem.ContentDigest key thereafter) and
//     estimate requests, each answered with one shard's raw per-sample
//     outcomes, plus the /healthz probe naming its frame version.
//   - Pool: the coordinator side — the listed workers under a
//     probe-driven failure detector that also refuses a worker
//     speaking another frame version (DESIGN.md §13) — and the sample
//     producer Pool.Samples: every range written before any reply is
//     awaited, per-shard retry, failover re-dispatch, speculative
//     straggler re-dispatch and local fallback.
//   - NewEstimator/Backend: the one diffusion.Estimator with the pool
//     as its Remote producer, so Solve/SolveAdaptiveCtx/TDSI and the
//     serving layer run unchanged over local or sharded estimation.
package shard
