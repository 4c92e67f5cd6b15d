// Package gridcache memoizes each seed group's folded sample grid
// across CELF waves, solver jobs and sharded batches — the second
// cache level of the serving stack (DESIGN.md §10), in front of the
// estimator's producer, local or a shard worker fleet.
//
// The §3 determinism contract makes every (group × sample-range) grid
// a pure function of the problem content, the master seed, the global
// sample indices, the seed group, the market mask and the withPi
// flag. The cache keys entries by exactly those coordinates —
// problem content address plus the canonical wirebin group key of
// key.go. The canonical sample-order fold (diffusion.ReduceSampleGrid)
// reduces a group from its own row alone, so the cache stores each
// group's folded diffusion.Estimate, packed: the four float fields, M
// and each item's integer total (the fold's PerItem[j] is total·(1/M)),
// varint-coded — O(items) bytes, whatever the sample count. Unpacking
// repeats the fold's arithmetic, so serving a hit is bit-identical to
// re-simulating and folding. Memoization is therefore free speed with
// zero accuracy loss, unlike the §9 sketch backend, which trades ε for
// it.
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
// caller; the rest Wait) and committed entries are evicted
// oldest-first past MaxBytes. Entries live in memory only: an evicted
// entry, or one from before a restart, is simulated again. A commit
// packs the estimate, so the cache keeps its own copy; every hit or
// joined flight unpacks a fresh one, so no caller writes through to an
// entry. Estimators attach per-problem views (Cache.View) through the
// diffusion.GridCache interface.
package gridcache
