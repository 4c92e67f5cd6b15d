// Package service is the campaign-solving subsystem behind the
// imdppd daemon: a bounded job queue over a solver worker pool, with
// per-job status and progress, prompt cancellation, a
// content-addressed LRU result cache and in-flight request
// coalescing.
//
// The cache and coalescing lean on the determinism contract of
// DESIGN.md §3: a solve is a pure function of its content-addressed
// inputs (HashRequest), so a cached Solution is the exact result an
// identical request would recompute, and concurrent duplicates can
// share one in-flight solve without changing what any caller
// observes. Because sharded estimation (internal/shard, DESIGN.md §7)
// is result-invariant too, the same cache sits unchanged above a
// remote-worker backend (Config.Backend): fleet-computed and local
// solves share cache entries. A request's key starts from the
// problem's own content digest (diffusion's Problem.ContentDigest),
// the address problems are uploaded to estimator workers under.
//
// The hash-exclusion rule is therefore about results, not about
// backends per se: anything that cannot change the returned floats
// (Workers, Progress, Backend-as-constructor) stays out of the
// digest, while the (ε, δ) parameters of the approximate
// reverse-reachable sketch backend (internal/sketch, DESIGN.md §9) —
// which change the answer from exact simulation to coverage counting
// — hash into their own lane, gated on Epsilon > 0 so an MC request
// mixes no sketch parameters and sketch answers never alias MC
// results. Requests carrying epsilon are
// echoed with backend "sketch" in job snapshots, and the service
// keeps a second content-addressed cache (sketch.Cache, keyed by the
// problem's content digest + ε + δ + seed, in memory) for the built
// indices themselves. That digest resumes the substrate's
// memoized walk, so keying a request costs a few dozen words.
package service
