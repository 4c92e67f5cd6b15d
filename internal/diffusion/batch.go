package diffusion

import "imdpp/internal/obs"

// This file is the batch evaluation face of the engine. Every estimate
// — single or batched — funnels through runBatch, which builds the
// full (group × sample) grid from the producer (the local simulation
// of shardable.go, or a remote Sampler) and folds it with
// ReduceSampleGrid; the grid cache, where it holds a group, serves
// that group's fold instead. The
// producer schedules (family × sample) work units onto one worker pool
// kept alive for the whole batch, so a universe of K candidates pays
// the orchestration cost once instead of K times. A family is a root group plus the groups that share its
// leading promotions and market mask; they resume from the root's
// checkpoint instead of re-simulating the shared prefix (family.go).
// Sample i of every group draws from the stream Split(i) of the same
// master generator — common random numbers — so marginal-gain
// comparisons across candidates in a greedy round are paired: the
// noise realisation is shared and differences reflect the candidates,
// not the draw. The fold adds each group's samples in order 0..M-1,
// which makes every Estimate a pure function of (master seed, M),
// independent of worker count and GOMAXPROCS. DESIGN.md §3 states the
// full contract.

// RunBatch estimates σ for every seed group under one shared market
// mask (nil = all users). It is the batched equivalent of calling Run
// per group and returns bit-identical Estimates: sample i of group g
// always uses stream Split(i), and per-group reduction is in sample
// order, so the result is deterministic in (Seed, M) and independent
// of Workers.
func (e *Estimator) RunBatch(groups [][]Seed, market []bool) []Estimate {
	return e.runBatch(groups, market, nil, false)
}

// RunBatchPi is RunBatch with the future-adoption likelihood π
// (Eq. 13) evaluated over the market for every group.
func (e *Estimator) RunBatchPi(groups [][]Seed, market []bool) []Estimate {
	return e.runBatch(groups, market, nil, true)
}

// RunBatchMasked estimates each group under its own market mask
// (masks[g] may be nil). withPi adds the π estimate per group.
func (e *Estimator) RunBatchMasked(groups [][]Seed, masks [][]bool, withPi bool) []Estimate {
	return e.runBatch(groups, nil, masks, withPi)
}

// SigmaBatch returns the σ estimate of every seed group.
func (e *Estimator) SigmaBatch(groups [][]Seed) []float64 {
	ests := e.RunBatch(groups, nil)
	out := make([]float64, len(ests))
	for i, est := range ests {
		out[i] = est.Sigma
	}
	return out
}

// SamplesDone reports how many Monte-Carlo campaign simulations this
// estimator has run, for throughput (samples/sec) accounting.
func (e *Estimator) SamplesDone() uint64 { return e.samples.Load() }

// runBatch is the engine: the full grid of samples 0..M-1, folded in
// sample order; market and masks are as for RunBatchSamples. With Grid
// attached it serves the folds it holds, and only the groups it misses
// reach the producer.
func (e *Estimator) runBatch(groups [][]Seed, market []bool, masks [][]bool, withPi bool) []Estimate {
	var sp *obs.Span
	if e.Remote == nil { // a remote producer records its own batch span
		sp = obs.StartSpan(e.ctx, "sigma_batch")
		defer sp.End()
		sp.SetAttrInt("groups", int64(len(groups)))
		sp.SetAttrInt("samples", int64(e.M))
	}
	if e.Grid == nil {
		return ReduceSampleGrid(e.produce(groups, market, masks, withPi), e.P.NumItems())
	}
	hits0 := e.gridHits.Load()
	ests := e.cachedEstimates(groups, market, masks, withPi)
	sp.SetAttrInt("grid_hits", int64(e.gridHits.Load()-hits0))
	return ests
}

// produce returns samples 0..M-1 of every group from Remote when one
// is set, else from the local simulation; never from the grid cache.
func (e *Estimator) produce(groups [][]Seed, market []bool, masks [][]bool, withPi bool) [][]SampleResult {
	if e.Remote != nil && len(groups) > 0 {
		grid, remote := e.Remote.Samples(e.ctx, e, groups, market, masks, withPi)
		e.samples.Add(remote)
		return grid
	}
	return e.runBatchSamplesRaw(groups, market, masks, withPi, 0, e.M)
}
