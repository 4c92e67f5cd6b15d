package shard

import (
	"context"
	"slices"
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
// dispatch, speculative duplicate, or local fallback) settles it and
// writes the grid; everyone else discards. cancel aborts the losers'
// outstanding RPCs — closing their streams, which stops the workers'
// engines — once their range is settled.
type shardState struct {
	rg         Range
	req        EstimateRequest
	preferred  int   // index into the batch's healthy remotes
	first      *call // the request written to the preferred worker
	done       bool  // guarded by batch.mu
	speculated bool  // guarded by batch.mu
	ctx        context.Context
	cancel     context.CancelFunc
}

// batch is one Samples call's shared state: the grid, the settled
// ranges' latencies and the straggler check.
type batch struct {
	p       *Pool
	ctx     context.Context
	e       *diffusion.Estimator
	remotes []*Remote
	blob    *ProblemBlob
	items   int
	market  []bool
	masks   [][]bool
	grid    [][]diffusion.SampleResult
	states  []*shardState
	start   time.Time
	wg      sync.WaitGroup // range and duplicate goroutines
	remote  atomic.Uint64

	mu        sync.Mutex
	latencies []time.Duration
	over      bool        // every range settled, or the batch returned
	waiting   bool        // the straggler check wants the next settle
	timer     *time.Timer // the straggler check (nil: no speculation)
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
// Every range's request frame is written to a stream of its preferred
// worker from this goroutine before any reply is awaited, so the
// workers start together: a fan-out is as slow as its slowest leg.
// Failures degrade, never corrupt: a range whose worker dies is
// re-dispatched to the next healthy worker, and when none remain it is
// computed locally by e.RunBatchSamples. With an empty or fully dead
// pool the whole grid is local, so e is exactly the local engine.
// Cancelling ctx closes the ranges' streams (which preempts the remote
// engines); the grid is then garbage the caller must discard, its rows
// nil when no range had landed.
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
	k, m := len(groups), e.M
	b := &batch{p: p, ctx: ctx, e: e, remotes: remotes, blob: p.blobFor(e.P), items: e.P.NumItems(),
		market: market, masks: masks}

	tmpl := EstimateRequest{
		Problem: b.blob.Key,
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

	// the rows materialize when the first range lands (finish): a batch
	// cancelled before any reply allocates no grid
	b.grid = make([][]diffusion.SampleResult, k)

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
	b.states = make([]*shardState, len(ranges))
	for i, rg := range ranges {
		sctx, cancel := context.WithCancel(bctx)
		st := &shardState{rg: rg, req: tmpl, preferred: i, ctx: sctx, cancel: cancel}
		st.req.Lo, st.req.Hi = rg.Lo, rg.Hi
		b.states[i] = st
	}
	defer func() {
		for _, st := range b.states {
			st.cancel()
		}
	}()

	b.start = time.Now()
	// every range on the wire before the first reply; a worker that
	// still needs the problem gets it from the range's own goroutine,
	// so first-contact uploads run in parallel
	for _, st := range b.states {
		if r := remotes[st.preferred]; r.knowsProblem(b.blob.Key) {
			st.first = p.begin(st.ctx, r, b.blob, &st.req)
		}
	}
	if len(remotes) > 1 && len(b.states) > 1 {
		b.mu.Lock() // straggle reads the timer under b.mu
		b.timer = time.AfterFunc(p.specMin, b.straggle)
		b.mu.Unlock()
	}
	b.wg.Add(len(b.states))
	for _, st := range b.states[1:] {
		go b.run(st)
	}
	b.run(b.states[0])
	b.wg.Wait()
	b.mu.Lock()
	b.over = true
	if b.timer != nil {
		b.timer.Stop()
	}
	b.mu.Unlock()
	return b.grid, b.remote.Load()
}

// run settles one range: its written call and failover chain, and the
// local engine when every worker failed.
func (b *batch) run(st *shardState) {
	defer b.wg.Done()
	rows := b.p.runShard(st.ctx, b.remotes, st.preferred, b.blob, &st.req, b.items, st.first)
	remote := rows != nil
	if rows == nil {
		if b.ctx.Err() != nil || b.settled(st) {
			return // cancelled, or a speculative duplicate won
		}
		// every worker failed for this range: compute it locally —
		// identical outcomes, since sample streams depend only on the
		// global index (finish counts the fallback iff these rows win;
		// a speculative duplicate may still beat them with a remote
		// result)
		rows = b.e.RunBatchSamples(st.req.Groups, b.market, b.masks, st.req.WithPi, st.rg.Lo, st.rg.Hi)
		if b.ctx.Err() != nil {
			return
		}
	}
	b.finish(st, rows, remote, false)
}

func (b *batch) settled(st *shardState) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return st.done
}

// finish settles one range exactly once: copy the rows into the grid,
// count the win under the right counter, record the latency for
// straggler detection, and abort any duplicate still in flight.
// Idempotence makes the race benign — a primary and its speculative
// duplicate compute bit-identical rows, so which one wins is invisible
// downstream; counters are bumped only by the winner so
// local_fallbacks/speculative_hits record what actually produced the
// result, not what was merely attempted.
func (b *batch) finish(st *shardState, rows [][]diffusion.SampleResult, remote, speculative bool) {
	b.mu.Lock()
	if st.done {
		b.mu.Unlock()
		return
	}
	st.done = true
	b.latencies = append(b.latencies, time.Since(b.start))
	check := b.waiting
	b.waiting = false
	if len(b.grid) > 0 && b.grid[0] == nil {
		for g := range b.grid {
			b.grid[g] = make([]diffusion.SampleResult, b.e.M)
		}
	}
	b.mu.Unlock()
	for g := range rows {
		copy(b.grid[g][st.rg.Lo:st.rg.Hi], rows[g])
	}
	if remote {
		b.remote.Add(uint64(len(rows) * st.rg.Span()))
	} else {
		b.p.localFallbacks.Add(1)
	}
	if speculative {
		b.p.speculativeHits.Add(1)
	}
	st.cancel()
	if check {
		b.straggle()
	}
}

// straggle is the speculative straggler check, first run by a timer at
// specMin: once half the ranges have settled (with two ranges, one),
// any range still running past specFactor × their median latency
// (floored at specMin) gets one duplicate dispatch on an idle healthy
// worker. Before half have settled it waits for the next settle, and
// before the threshold it re-arms the timer for it. Safe by
// idempotence — the duplicate computes the same bytes, finish picks a
// winner by range identity, and the loser's stream is closed.
func (b *batch) straggle() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.over || b.ctx.Err() != nil {
		return
	}
	n := len(b.latencies)
	if n == len(b.states) {
		return
	}
	if n == 0 || 2*n < len(b.states) {
		b.waiting = true
		return
	}
	lat := append([]time.Duration(nil), b.latencies...)
	slices.Sort(lat)
	threshold := max(time.Duration(b.p.specFactor*float64(lat[n/2])), b.p.specMin)
	if wait := threshold - time.Since(b.start); wait > 0 {
		b.timer.Reset(wait)
		return
	}
	for _, st := range b.states {
		if st.done || st.speculated {
			continue
		}
		spare := pickIdleRemote(b.remotes, st.preferred)
		if spare < 0 {
			continue
		}
		// st is unsettled and the batch not cancelled, so st's own
		// goroutine still holds the wait group above zero
		st.speculated = true
		b.wg.Add(1)
		go func(st *shardState, r *Remote) {
			defer b.wg.Done()
			rows := b.p.tryShardOn(st.ctx, r, b.blob, &st.req, b.items)
			if rows != nil && b.ctx.Err() == nil {
				b.finish(st, rows, true, true)
			}
		}(st, b.remotes[spare])
	}
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
