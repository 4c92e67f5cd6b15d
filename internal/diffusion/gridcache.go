package diffusion

// This file is the estimator's estimate memoization hook (DESIGN.md
// §10). The §3 determinism contract makes every group's grid of
// samples 0..M-1 a pure function of (problem, master seed, M, seed
// group, market mask, withPi), and each group is folded from its own
// samples alone — so a cache keyed by exactly those coordinates
// can substitute the stored fold of a group for its re-simulation with
// zero accuracy loss. The estimator stays agnostic of the cache's
// policy (bounds, eviction, key encoding): it only speaks the
// Begin/Commit/Abort/Wait protocol below. internal/gridcache provides
// the implementation; the interface lives here because gridcache
// imports diffusion and not vice versa.

// GridCache memoizes the folded Estimate of evaluation groups over
// samples 0..m-1. Begin resolves one (seed, m, group, market, withPi)
// unit: a hit returns the stored estimate and a nil ticket; a miss
// returns a ticket that is either owned (this caller must produce the
// estimate and Commit it — or Abort on cancellation) or joined
// (another caller is already producing the same unit; Wait for it).
// A cache keeps its own copy of what it stores, and every Estimate it
// hands out owns its PerItem.
type GridCache interface {
	Begin(seed uint64, m int, seeds []Seed, market []bool, withPi bool) (Estimate, GridTicket)
}

// GridTicket is one in-flight cache reservation. Exactly one caller
// per key owns the flight; owners must settle it with Commit or Abort
// (never both), joiners hold no obligations and just Wait.
type GridTicket interface {
	// Owned reports whether this caller must produce the estimate.
	Owned() bool
	// Commit publishes the produced estimate (owner only). The cache
	// keeps its own copy: the caller keeps est, PerItem included.
	Commit(est Estimate)
	// Abort cancels an owned flight without publishing (preemption);
	// waiters are released empty-handed and the next Begin retries.
	Abort()
	// Wait blocks until the owning flight settles or stop fires,
	// returning the committed estimate, or ok=false when the flight
	// aborted or stop fired first.
	Wait(stop <-chan struct{}) (Estimate, bool)
}

// GridStats reports how many group evaluations this estimator served
// from the attached grid cache and how many campaign simulations that
// avoided — the per-solve view behind core.Stats.GridHits /
// SamplesSaved (the cache's own Stats aggregate across estimators).
func (e *Estimator) GridStats() (hits, samplesSaved uint64) {
	return e.gridHits.Load(), e.gridSaved.Load()
}

// cachedEstimates is the memoizing front of the producer (produce):
// the estimate over samples 0..M-1 of every group, each group looked
// up first and only the owned misses produced, locally or by Remote,
// folded and committed. The protocol is deadlock-free by construction:
// phase 1 reserves every group non-blocking, phase 2 produces all
// owned misses as one sub-batch and commits them, and only phase 3
// waits on flights owned by other callers — an owner never blocks on a
// foreign flight before settling its own. A joined flight that aborts
// (its owner was preempted) degrades to producing that one group.
func (e *Estimator) cachedEstimates(groups [][]Seed, market []bool, masks [][]bool, withPi bool) []Estimate {
	if e.preempted() {
		// Match the producer's cancellation latency: hits return
		// instantly and never reach its per-unit preemption checks.
		return newEstimates(len(groups), e.P.NumItems())
	}
	out := make([]Estimate, len(groups))
	maskFor := func(g int) []bool {
		if masks != nil {
			return masks[g]
		}
		return market
	}
	// a shared market stays shared, so a remote request carries it once
	subBatch := func(gs []int) []Estimate {
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
	served := func(g int, est Estimate) {
		out[g] = est
		e.gridHits.Add(1)
		e.gridSaved.Add(uint64(e.M))
	}
	tickets := make([]GridTicket, len(groups))
	var owned, joined []int
	for g := range groups {
		est, t := e.Grid.Begin(e.Seed, e.M, groups[g], maskFor(g), withPi)
		switch {
		case t == nil:
			served(g, est)
		case t.Owned():
			tickets[g] = t
			owned = append(owned, g)
		default:
			tickets[g] = t
			joined = append(joined, g)
		}
	}
	if len(owned) > 0 {
		ests := subBatch(owned)
		cancelled := e.preempted()
		for i, g := range owned {
			out[g] = ests[i]
			if cancelled {
				tickets[g].Abort() // a preempted batch's samples are partial: never publish them
				continue
			}
			tickets[g].Commit(ests[i])
		}
	}
	for _, g := range joined {
		if est, ok := tickets[g].Wait(e.done); ok {
			served(g, est)
		} else {
			out[g] = subBatch([]int{g})[0]
		}
	}
	return out
}
