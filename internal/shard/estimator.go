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

// NewEstimator creates a sharded estimator over the pool: the one
// Monte-Carlo engine (diffusion.Estimator) with the pool as its sample
// producer (Pool.Samples). samples and seed are as for
// diffusion.NewEstimator; workers bounds the *local* engine's
// parallelism for fallback ranges (0 → GOMAXPROCS) — remote workers
// size themselves. MeanWeights, and every range no worker answers, run
// on the local engine bit-identically to any worker. A grid cache
// attached as Grid sits in front of the pool: only misses go out (§10).
func NewEstimator(pool *Pool, p *diffusion.Problem, samples int, seed uint64, workers int) *diffusion.Estimator {
	e := diffusion.NewEstimator(p, samples, seed)
	e.Workers = workers
	e.Remote = pool
	return e
}

// Backend returns a core.EstimatorFactory dispatching over pool — the
// Options.Backend / service Config.Backend value that runs the whole
// solver pipeline over the worker fleet.
func Backend(pool *Pool) core.EstimatorFactory {
	return func(p *diffusion.Problem, samples int, seed uint64, workers int) core.Estimator {
		return NewEstimator(pool, p, samples, seed, workers)
	}
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

// Samples is the sharded sample producer (diffusion.Sampler) of a
// batch, or of its grid-cache misses: it
// partitions the global sample indices [0,e.M) into contiguous ranges
// (Plan), fans the ranges out over the healthy workers and re-assembles
// their raw per-sample outcomes into the full (group × sample) grid,
// which e folds in global sample order (diffusion.ReduceSampleGrid).
// Because sample i always draws from Split(i) wherever it runs, every
// estimate is bit-identical to the in-process engine's — DESIGN.md §7
// gives the argument, the package golden tests pin it across 1/2/7
// shards. remote counts the campaigns the workers simulated.
//
// Failures degrade, never corrupt: a range whose worker dies is
// re-dispatched to the next healthy worker, and when none remain it is
// computed locally by e.RunBatchSamples. With an empty or fully dead
// pool the whole grid is local, so e is exactly the local engine.
// Cancelling ctx aborts the RPCs (which preempts the remote engines);
// the grid is then garbage the caller must discard.
func (p *Pool) Samples(ctx context.Context, e *diffusion.Estimator, groups [][]diffusion.Seed, market []bool, masks [][]bool, withPi bool) (grid [][]diffusion.SampleResult, remote uint64) {
	p.probeUnprobed()
	remotes := p.healthyRemotes()
	if len(remotes) == 0 {
		// dead or empty fleet: the whole batch runs locally, and the
		// counter must say so — operators watch local_fallbacks to spot
		// a coordinator that has silently stopped using its workers
		p.localFallbacks.Add(1)
		return e.RunBatchSamples(groups, market, masks, withPi, 0, e.M), 0
	}
	if ctx == nil {
		ctx = context.Background()
	}
	k, m, items := len(groups), e.M, e.P.NumItems()
	blob := p.blobFor(e.P)

	tmpl := EstimateRequest{
		Problem: blob.Key,
		Seed:    e.Seed,
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

	grid = make([][]diffusion.SampleResult, k)
	for g := range grid {
		grid[g] = make([]diffusion.SampleResult, m)
	}

	// batch span parenting every shard_rpc span below; shard contexts
	// derive from bctx so the trace rides the same cancellation tree
	batchSpan := obs.StartSpan(ctx, "shard_batch")
	defer batchSpan.End()
	batchSpan.SetAttrInt("groups", int64(k))
	batchSpan.SetAttrInt("samples", int64(m))
	bctx := obs.ContextWithSpan(ctx, batchSpan)

	// the even split, range i preferring remote i: near-even ranges
	// balance the engine's uniform per-sample cost, and contiguous
	// ones leave the §7 merge untouched
	ranges := Plan(m, len(remotes))
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
	var (
		doneCount atomic.Int32
		remoteN   atomic.Uint64
	)
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
			remoteN.Add(uint64(k * st.rg.Span()))
		} else {
			p.localFallbacks.Add(1)
		}
		if speculative {
			p.speculativeHits.Add(1)
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
			rows := p.runShard(st.ctx, remotes, st.preferred, blob, &req, items)
			remote := rows != nil
			if rows == nil {
				if ctx.Err() != nil || st.done.Load() {
					return // cancelled, or a speculative duplicate won
				}
				// every worker failed for this range: compute it locally
				// — identical outcomes, since sample streams depend only
				// on the global index (finish counts the fallback iff
				// these rows win; a speculative duplicate may still beat
				// them with a remote result)
				rows = e.RunBatchSamples(groups, market, masks, withPi, st.rg.Lo, st.rg.Hi)
				if ctx.Err() != nil {
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
			tick := time.NewTicker(p.specTick)
			defer tick.Stop()
			for {
				select {
				case <-allDone:
					return
				case <-ctx.Done():
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
				threshold := time.Duration(p.specFactor * float64(completed[len(completed)/2]))
				if threshold < p.specMin {
					threshold = p.specMin
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
						rows := p.tryShardOn(st.ctx, r, blob, &req, items)
						if rows != nil && ctx.Err() == nil {
							finish(st, rows, true, true)
						}
					}(st, remotes[spare])
				}
			}
		}()
	}
	wg.Wait()
	return grid, remoteN.Load()
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
