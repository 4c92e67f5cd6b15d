// Package gridcache memoizes raw per-sample outcome grids across
// CELF waves, solver jobs and shard workers — the second cache level
// of the serving stack (DESIGN.md §10), between the whole-solve LRU
// and the approximate sketch lane.
//
// The §3 determinism contract makes every (group × sample-range) grid
// a pure function of the problem content, the master seed, the global
// sample indices, the seed group, the market mask and the withPi
// flag. The cache keys entries by exactly those coordinates —
// problem content address plus the canonical wirebin group key of
// key.go — and stores the raw diffusion.SampleResult rows, so serving
// a hit and reducing it with the canonical sample-order fold
// (diffusion.ReduceSampleGrid) is bit-identical to re-simulating.
// Memoization is therefore free speed with zero accuracy loss, unlike
// the §9 sketch backend, which trades ε for it.
//
// Group keys are canonicalised only as far as the engine provably
// ignores: seeds are bucketed by promotion T ascending with within-T
// input order preserved (the exact reordering RunCampaign itself
// performs). Within-promotion order is significant — the campaign
// consumes a sequential RNG stream in frontier order — so it is kept,
// never sorted away; aliasing bit-different grids is the one failure
// a bit-identity cache must not have.
//
// The cache is the byte-costed lane of internal/castore: concurrent
// misses on one key simulate once (Begin hands ownership to the first
// caller; the rest Wait), committed entries are evicted oldest-first
// past MaxBytes, and an optional spill directory persists grids in
// the canonical AppendSampleGrid wire form so eviction or a restart
// degrades repeats to disk hits instead of re-simulation. Estimators
// attach per-problem views (Cache.View) through the
// diffusion.GridCache interface.
package gridcache
