// Package diffusion implements the IMDPP diffusion process of Sec. III:
// a campaign of T promotions, each with steps ζ = 0,1,... in which
// users adopting items promote them to friends, extra adoptions are
// triggered by item associations, and the four dynamic factors —
// relevance measurement, preference estimation, influence learning and
// item associations — are updated at the end of every step.
//
// The Monte-Carlo estimator computes the importance-aware influence σ
// (Def. 1) and the future-adoption likelihood π (Eq. 13) through one
// batch engine (batch.go, shardable.go: one claim loop that folds as
// it draws on one goroutine and keeps sample rows for ReduceSampleGrid
// otherwise) under the DESIGN.md §3 determinism contract:
// sample i of every seed group draws from the stream Split(i) of the
// master seed and per-group results reduce in sample order, so every
// Estimate is bit-identical across worker counts, GOMAXPROCS — and,
// via the shardable entry points RunBatchSamples/ReduceSampleGrid
// (shardable.go, DESIGN.md §7), across process boundaries.
//
// Hot-path memory layout (flat CSR graph views, sparse pooled
// per-sample State rows) is documented in DESIGN.md §5.
package diffusion
