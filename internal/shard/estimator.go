package shard

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/diffusion"
	"imdpp/internal/obs"
)

// Estimator is the sharded σ/π estimation backend: a core.Estimator
// that partitions every batch's global sample indices [0,M) into
// contiguous ranges (Plan), fans the ranges out over the pool's
// healthy workers, re-assembles the raw per-sample outcomes into the
// full (group × sample) grid, and reduces it in global sample order
// (diffusion.ReduceSampleGrid). Because sample i always draws from
// Split(i) wherever it runs and the merge uses the single-process
// accumulation arithmetic, every estimate is bit-identical to the
// in-process engine's — DESIGN.md §7 gives the argument, the package
// golden tests pin it across 1/2/7 shards.
//
// Failures degrade, never corrupt: a shard whose worker dies is
// re-dispatched to the next healthy worker, and when none remain it is
// computed locally by the embedded fallback engine. With an empty or
// fully dead pool the Estimator is exactly the local engine.
//
// Like diffusion.Estimator, it is safe for sequential reuse by one
// solver; Bind must not race an in-flight evaluation.
type Estimator struct {
	pool *Pool
	p    *diffusion.Problem
	m    int
	seed uint64

	// local is the fallback engine; it also serves MeanWeights (a
	// cheap single-group expectation not worth a round-trip) and keeps
	// the Reseed/Bind state mirrored so fallback results are identical
	// to what a remote worker would have produced.
	local *diffusion.Estimator
	ctx   context.Context

	remoteSamples atomic.Uint64
}

// NewEstimator creates a sharded estimator over the pool. samples and
// seed mirror diffusion.NewEstimator; workers bounds the *local*
// engine's parallelism for fallback ranges (0 → GOMAXPROCS) — remote
// workers size themselves.
func NewEstimator(pool *Pool, p *diffusion.Problem, samples int, seed uint64, workers int) *Estimator {
	if samples < 1 {
		samples = 1
	}
	local := diffusion.NewEstimator(p, samples, seed)
	local.Workers = workers
	return &Estimator{
		pool:  pool,
		p:     p,
		m:     samples,
		seed:  seed,
		local: local,
		ctx:   context.Background(),
	}
}

// Backend returns a core.EstimatorFactory dispatching over pool — the
// Options.Backend / service Config.Backend value that runs the whole
// solver pipeline over the worker fleet.
func Backend(pool *Pool) core.EstimatorFactory {
	return func(p *diffusion.Problem, samples int, seed uint64, workers int) core.Estimator {
		return NewEstimator(pool, p, samples, seed, workers)
	}
}

var _ core.Estimator = (*Estimator)(nil)

// Bind attaches a cancellation context: shard RPCs are issued with it
// (cancelling aborts the HTTP requests, which preempts the remote
// engines), and the local fallback engine is bound to it. As with the
// local engine, a cancelled batch returns garbage the caller must
// discard after checking the context.
func (e *Estimator) Bind(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	e.local.Bind(ctx)
}

// Reseed replaces the master seed for subsequent estimates.
func (e *Estimator) Reseed(seed uint64) {
	e.seed = seed
	e.local.Reseed(seed)
}

// SamplesDone reports cumulative Monte-Carlo campaigns simulated on
// behalf of this estimator, locally and remotely.
func (e *Estimator) SamplesDone() uint64 {
	return e.remoteSamples.Load() + e.local.SamplesDone()
}

// StateBytes reports the local fallback engine's retained state
// footprint (remote workers' state lives in their own processes).
func (e *Estimator) StateBytes() uint64 { return e.local.StateBytes() }

// AttachGrid wires a sample-grid memoization view (DESIGN.md §10)
// into the local fallback engine, so coordinator-side evaluations —
// fallback ranges with a dead pool, MeanWeights — share grids with
// other solves on this process. Remote workers host their own cache
// instances (WorkerConfig.Grid); attaching here does not affect what
// they simulate.
func (e *Estimator) AttachGrid(v diffusion.GridCache) { e.local.Grid = v }

// GridStats reports the local engine's cache-served work, the
// per-solve counters behind core.Stats.GridHits/SamplesSaved.
// Worker-side hits are visible in the workers' own /metrics, not
// here: a coordinator cannot tell a warm remote grid from a cold one
// by looking at the bit-identical bytes it receives.
func (e *Estimator) GridStats() (hits, samplesSaved uint64) { return e.local.GridStats() }

// Sigma returns the Monte-Carlo estimate of σ(seeds).
func (e *Estimator) Sigma(seeds []diffusion.Seed) float64 {
	return e.Run(seeds, nil, false).Sigma
}

// Run estimates one seed group; it is the single-group case of the
// sharded batch path.
func (e *Estimator) Run(seeds []diffusion.Seed, market []bool, withPi bool) diffusion.Estimate {
	return e.runBatch([][]diffusion.Seed{seeds}, market, nil, withPi)[0]
}

// RunBatch estimates every group under one shared market mask.
func (e *Estimator) RunBatch(groups [][]diffusion.Seed, market []bool) []diffusion.Estimate {
	return e.runBatch(groups, market, nil, false)
}

// RunBatchPi is RunBatch with π evaluated per group.
func (e *Estimator) RunBatchPi(groups [][]diffusion.Seed, market []bool) []diffusion.Estimate {
	return e.runBatch(groups, market, nil, true)
}

// RunBatchMasked estimates each group under its own mask.
func (e *Estimator) RunBatchMasked(groups [][]diffusion.Seed, masks [][]bool, withPi bool) []diffusion.Estimate {
	return e.runBatch(groups, nil, masks, withPi)
}

// SigmaBatch returns the σ estimate of every seed group.
func (e *Estimator) SigmaBatch(groups [][]diffusion.Seed) []float64 {
	ests := e.RunBatch(groups, nil)
	out := make([]float64, len(ests))
	for i, est := range ests {
		out[i] = est.Sigma
	}
	return out
}

// MeanWeights delegates to the local engine: it is one group's worth
// of simulation, and the local engine computes it bit-identically to
// any worker (same seed derivation, same streams).
func (e *Estimator) MeanWeights(seeds []diffusion.Seed, users []int) []float64 {
	return e.local.MeanWeights(seeds, users)
}

// shardState tracks one in-flight range: the first finisher (primary
// dispatch, speculative duplicate, or local fallback) wins the CAS and
// writes the grid; everyone else discards. cancel aborts the losers'
// outstanding RPCs so stragglers stop burning worker time once their
// range is settled.
type shardState struct {
	rg         Range
	preferred  int // index into the batch's healthy remotes
	done       atomic.Bool
	speculated atomic.Bool
	ctx        context.Context
	cancel     context.CancelFunc
}

// runBatch is the sharded engine body.
func (e *Estimator) runBatch(groups [][]diffusion.Seed, market []bool, masks [][]bool, withPi bool) []diffusion.Estimate {
	k := len(groups)
	if k == 0 {
		return make([]diffusion.Estimate, 0)
	}
	remotes := e.pool.healthyRemotes()
	if len(remotes) == 0 {
		// dead or empty fleet: the whole batch runs locally, and the
		// counter must say so — operators watch local_fallbacks to spot
		// a coordinator that has silently stopped using its workers
		e.pool.localFallbacks.Add(1)
		return e.localBatch(groups, market, masks, withPi)
	}
	blob := e.pool.blobFor(e.p)

	tmpl := EstimateRequest{
		Problem: blob.Key.String(),
		Seed:    e.seed,
		WithPi:  withPi,
		Groups:  groups,
		Market:  maskToUsers(market),
	}
	if masks != nil {
		tmpl.PerGroupMasks = make([][]int32, len(masks))
		for g, mk := range masks {
			tmpl.PerGroupMasks[g] = maskToUsers(mk)
		}
	}

	grid := make([][]diffusion.SampleResult, k)
	for g := range grid {
		grid[g] = make([]diffusion.SampleResult, e.m)
	}

	// batch span parenting every shard_rpc span below; shard contexts
	// derive from bctx so the trace rides the same cancellation tree
	batchSpan := obs.StartSpan(e.ctx, "shard_batch")
	defer batchSpan.End()
	batchSpan.SetAttrInt("groups", int64(k))
	batchSpan.SetAttrInt("samples", int64(e.m))
	bctx := obs.ContextWithSpan(e.ctx, batchSpan)

	// the even split, range i preferring remote i: a fleet of a given
	// size cuts the same [lo,hi) ranges every batch, so worker grid
	// caches (§10) hit across solves; contiguous ranges leave the §7
	// merge untouched
	ranges := Plan(e.m, len(remotes))
	batchSpan.SetAttrInt("shards", int64(len(ranges)))
	states := make([]*shardState, len(ranges))
	for i, rg := range ranges {
		sctx, cancel := context.WithCancel(bctx)
		states[i] = &shardState{rg: rg, preferred: i, ctx: sctx, cancel: cancel}
	}
	defer func() {
		for _, st := range states {
			st.cancel()
		}
	}()

	batchStart := time.Now()
	var (
		latMu     sync.Mutex
		latencies []time.Duration
	)
	var doneCount atomic.Int32
	allDone := make(chan struct{})
	// finish settles one range exactly once (CAS on done): copy the
	// rows into the grid, count the win under the right counter, record
	// the latency for straggler detection, and abort any duplicate
	// still in flight. Idempotence makes the race benign — a primary
	// and its speculative duplicate compute bit-identical rows, so
	// which one wins is invisible downstream; counters are bumped only
	// by the winner so local_fallbacks/speculative_hits record what
	// actually produced the result, not what was merely attempted.
	finish := func(st *shardState, rows [][]diffusion.SampleResult, remote, speculative bool) {
		if !st.done.CompareAndSwap(false, true) {
			return
		}
		for g := range rows {
			copy(grid[g][st.rg.Lo:st.rg.Hi], rows[g])
		}
		if remote {
			e.remoteSamples.Add(uint64(k * st.rg.Span()))
		} else {
			e.pool.localFallbacks.Add(1)
		}
		if speculative {
			e.pool.speculativeHits.Add(1)
		}
		latMu.Lock()
		latencies = append(latencies, time.Since(batchStart))
		latMu.Unlock()
		st.cancel()
		if int(doneCount.Add(1)) == len(states) {
			close(allDone)
		}
	}

	var wg sync.WaitGroup
	for _, st := range states {
		wg.Add(1)
		go func(st *shardState) {
			defer wg.Done()
			req := tmpl
			req.Lo, req.Hi = st.rg.Lo, st.rg.Hi
			rows := e.pool.runShard(st.ctx, remotes, st.preferred, blob, &req, e.p.NumItems())
			remote := rows != nil
			if rows == nil {
				if e.ctx.Err() != nil || st.done.Load() {
					return // cancelled, or a speculative duplicate won
				}
				// every worker failed for this range: compute it locally
				// — identical outcomes, since sample streams depend only
				// on the global index (finish counts the fallback iff
				// these rows win; a speculative duplicate may still beat
				// them with a remote result)
				rows = e.local.RunBatchSamples(groups, market, masks, withPi, st.rg.Lo, st.rg.Hi)
				if e.ctx.Err() != nil {
					return
				}
			}
			finish(st, rows, remote, false)
		}(st)
	}
	// Speculative straggler re-dispatch: once more than half the
	// ranges have completed, any range still running past
	// specFactor × the median completed latency gets one duplicate
	// dispatch on an idle healthy worker. Safe by idempotence — the
	// duplicate computes the same bytes, finish()'s CAS picks a winner
	// by range identity, and the loser's RPC is cancelled. The monitor
	// parks on allDone, so fast batches pay one channel-select, not a
	// ticker tick.
	if len(remotes) > 1 && len(states) > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(e.pool.specTick)
			defer tick.Stop()
			for {
				select {
				case <-allDone:
					return
				case <-e.ctx.Done():
					return
				case <-tick.C:
				}
				latMu.Lock()
				completed := append([]time.Duration(nil), latencies...)
				latMu.Unlock()
				// wait for at least half the ranges before trusting the
				// median (with two shards, one completion is the half)
				if len(completed) == 0 || 2*len(completed) < len(states) {
					continue
				}
				sort.Slice(completed, func(a, b int) bool { return completed[a] < completed[b] })
				threshold := time.Duration(e.pool.specFactor * float64(completed[len(completed)/2]))
				if threshold < e.pool.specMin {
					threshold = e.pool.specMin
				}
				if time.Since(batchStart) <= threshold {
					continue
				}
				for _, st := range states {
					if st.done.Load() || st.speculated.Load() {
						continue
					}
					spare := pickIdleRemote(remotes, st.preferred)
					if spare < 0 {
						continue
					}
					st.speculated.Store(true)
					wg.Add(1)
					go func(st *shardState, r *Remote) {
						defer wg.Done()
						req := tmpl
						req.Lo, req.Hi = st.rg.Lo, st.rg.Hi
						rows := e.pool.tryShardOn(st.ctx, r, blob, &req, e.p.NumItems())
						if rows != nil && e.ctx.Err() == nil {
							finish(st, rows, true, true)
						}
					}(st, remotes[spare])
				}
			}
		}()
	}
	wg.Wait()
	if e.ctx.Err() != nil {
		// match the local engine's cancellation contract: return
		// promptly with placeholder estimates the caller must discard
		out := make([]diffusion.Estimate, k)
		items := e.p.NumItems()
		buf := make([]float64, k*items)
		for g := range out {
			out[g].PerItem = buf[g*items : (g+1)*items : (g+1)*items]
		}
		return out
	}
	return diffusion.ReduceSampleGrid(grid, e.p.NumItems())
}

// pickIdleRemote returns the index of a healthy remote with no shard
// RPC in flight, skipping the straggler's own preferred worker, or -1
// when the fleet is saturated — speculation must never queue behind
// busy workers, only soak up genuinely idle capacity.
func pickIdleRemote(remotes []*Remote, avoid int) int {
	for i, r := range remotes {
		if i == avoid {
			continue
		}
		if r.dispatchable() && r.inflight.Load() == 0 {
			return i
		}
	}
	return -1
}

// localBatch runs the whole batch on the embedded engine — the
// empty-pool / dead-fleet degradation path, bit-identical to a
// non-sharded solve.
func (e *Estimator) localBatch(groups [][]diffusion.Seed, market []bool, masks [][]bool, withPi bool) []diffusion.Estimate {
	if masks != nil {
		return e.local.RunBatchMasked(groups, masks, withPi)
	}
	if withPi {
		return e.local.RunBatchPi(groups, market)
	}
	return e.local.RunBatch(groups, market)
}
