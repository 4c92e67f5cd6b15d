package diffusion

// This file is the estimator's sample-grid memoization hook
// (DESIGN.md §10). The §3 determinism contract makes every (group ×
// sample-range) grid a pure function of (problem, master seed, sample
// indices, seed group, market mask, withPi) — so a cache keyed by
// exactly those coordinates can substitute stored raw outcomes for
// re-simulation with zero accuracy loss. The estimator stays agnostic
// of the cache's policy (bounds, eviction, key encoding):
// it only speaks the Begin/Commit/Abort/Wait protocol below.
// internal/gridcache provides the implementation; the interface lives
// here because gridcache imports diffusion and not vice versa.

// GridCache memoizes raw per-sample outcome grids for evaluation
// groups. Begin resolves one (seed, [lo,hi), group, market, withPi)
// unit: a hit returns the stored rows and a nil ticket; a miss returns
// a ticket that is either owned (this caller must simulate the rows
// and Commit them — or Abort on cancellation) or joined (another
// caller is already simulating the same unit; Wait for its rows).
// (nil, nil) means the cache declined the unit — simulate without
// obligations. Returned rows are shared and must never be mutated.
type GridCache interface {
	Begin(seed uint64, lo, hi int, seeds []Seed, market []bool, withPi bool) ([]SampleResult, GridTicket)
}

// GridTicket is one in-flight cache reservation. Exactly one caller
// per key owns the flight; owners must settle it with Commit or Abort
// (never both), joiners hold no obligations and just Wait.
type GridTicket interface {
	// Owned reports whether this caller must produce the rows.
	Owned() bool
	// Commit publishes the simulated rows (owner only). The rows are
	// retained by the cache and must not be mutated afterwards.
	Commit(rows []SampleResult)
	// Abort cancels an owned flight without publishing (preemption);
	// waiters are released empty-handed and the next Begin retries.
	Abort()
	// Wait blocks until the owning flight settles or stop fires,
	// returning the committed rows, or ok=false when the flight
	// aborted or stop fired first.
	Wait(stop <-chan struct{}) ([]SampleResult, bool)
}

// GridStats reports how many group evaluations this estimator served
// from the attached grid cache and how many campaign simulations that
// avoided — the per-solve view behind core.Stats.GridHits /
// SamplesSaved (the cache's own Stats aggregate across estimators).
func (e *Estimator) GridStats() (hits, samplesSaved uint64) {
	return e.gridHits.Load(), e.gridSaved.Load()
}

// cachedSamples is the memoizing front of the producer (produce):
// samples 0..M-1 of every group, each group looked up first and only
// the owned misses produced, locally or by Remote, then committed. The
// protocol is deadlock-free by construction: phase 1 reserves every
// group non-blocking, phase 2 produces all owned misses as one
// sub-batch and commits them, and only phase 3 waits on flights owned
// by other callers — an owner never blocks on a foreign flight before
// settling its own. A joined flight that aborts (its owner was
// preempted) degrades to producing that one group.
func (e *Estimator) cachedSamples(groups [][]Seed, market []bool, masks [][]bool, withPi bool) [][]SampleResult {
	out := make([][]SampleResult, len(groups))
	if e.preempted() {
		// Match the producer's cancellation latency: hits return
		// instantly and never reach its per-unit preemption checks.
		return out
	}
	maskFor := func(g int) []bool {
		if masks != nil {
			return masks[g]
		}
		return market
	}
	// a shared market stays shared, so a remote request carries it once
	subBatch := func(gs []int) [][]SampleResult {
		sub := make([][]Seed, len(gs))
		var subMasks [][]bool
		if masks != nil {
			subMasks = make([][]bool, len(gs))
		}
		for i, g := range gs {
			sub[i] = groups[g]
			if masks != nil {
				subMasks[i] = masks[g]
			}
		}
		return e.produce(sub, market, subMasks, withPi)
	}
	served := func(g int, rows []SampleResult) {
		out[g] = rows
		e.gridHits.Add(1)
		e.gridSaved.Add(uint64(e.M))
	}
	tickets := make([]GridTicket, len(groups))
	var owned, joined []int
	for g := range groups {
		rows, t := e.Grid.Begin(e.Seed, 0, e.M, groups[g], maskFor(g), withPi)
		switch {
		case rows != nil:
			served(g, rows)
		case t == nil || t.Owned():
			tickets[g] = t
			owned = append(owned, g)
		default:
			tickets[g] = t
			joined = append(joined, g)
		}
	}
	if len(owned) > 0 {
		rows := subBatch(owned)
		cancelled := e.preempted()
		for i, g := range owned {
			out[g] = rows[i]
			switch t := tickets[g]; {
			case t == nil:
			case cancelled:
				t.Abort() // a preempted batch's rows are partial: never publish them
			default:
				t.Commit(rows[i])
			}
		}
	}
	for _, g := range joined {
		if rows, ok := tickets[g].Wait(e.done); ok {
			served(g, rows)
		} else {
			out[g] = subBatch([]int{g})[0]
		}
	}
	return out
}
