package core

import (
	"cmp"
	"container/heap"
	"slices"

	"imdpp/internal/cluster"
	"imdpp/internal/diffusion"
)

// candidateUniverse builds the nominee universe U = {(u,x)}; when
// CandidateCap > 0 it keeps the top candidates by the cheap prior
// outdeg(u)·w_x·P0pref(u,x)/c_{u,x}, mirroring how the authors' code
// prunes the |V|·|I| grid before the expensive MCP pass.
func (s *solver) candidateUniverse() []cluster.Nominee {
	p := s.p
	type scored struct {
		nm    cluster.Nominee
		score float64
	}
	all := make([]scored, 0, p.NumUsers()*p.NumItems())
	for u := 0; u < p.NumUsers(); u++ {
		deg := float64(p.G.OutDegree(u))
		if deg == 0 {
			continue
		}
		for x := 0; x < p.NumItems(); x++ {
			c := p.CostOf(u, x)
			if c > p.Budget {
				continue // never affordable
			}
			pr := p.BasePrefOf(u, x)
			if pr <= 0 {
				continue
			}
			score := deg * p.Importance[x] * pr / (c + 1e-9)
			all = append(all, scored{cluster.Nominee{User: u, Item: x}, score})
		}
	}
	// a strict total order (score down, then user, then item), so the
	// sorted universe is unique
	slices.SortFunc(all, func(a, b scored) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		}
		return cmp.Or(cmp.Compare(a.nm.User, b.nm.User), cmp.Compare(a.nm.Item, b.nm.Item))
	})
	cap := s.opt.CandidateCap
	if cap > 0 && len(all) > cap {
		// Keep the universe user-diverse: at most 3 items per user, so
		// the cap does not fill up with one hub's entire catalogue.
		kept := all[:0]
		perUser := make([]uint8, p.NumUsers())
		var overflow []scored
		for _, sc := range all {
			if perUser[sc.nm.User] < 3 {
				perUser[sc.nm.User]++
				kept = append(kept, sc)
				if len(kept) == cap {
					break
				}
			} else {
				overflow = append(overflow, sc)
			}
		}
		for _, sc := range overflow {
			if len(kept) == cap {
				break
			}
			kept = append(kept, sc)
		}
		all = kept
	}
	out := make([]cluster.Nominee, len(all))
	for i, sc := range all {
		out[i] = sc.nm
	}
	return out
}

// celfEntry is a lazily-evaluated candidate in the MCP heap.
type celfEntry struct {
	nm       cluster.Nominee
	gain     float64 // marginal σ at last evaluation
	ratio    float64 // gain / cost
	lastEval int     // |N| when gain was computed
	index    int
}

type celfHeap []*celfEntry

func (h celfHeap) Len() int { return len(h) }
func (h celfHeap) Less(i, j int) bool {
	if h[i].ratio != h[j].ratio {
		return h[i].ratio > h[j].ratio
	}
	// deterministic tie-break
	if h[i].nm.User != h[j].nm.User {
		return h[i].nm.User < h[j].nm.User
	}
	return h[i].nm.Item < h[j].nm.Item
}
func (h celfHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *celfHeap) Push(x any) {
	e := x.(*celfEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *celfHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// selectNominees is Procedure 2: iteratively extract the affordable
// nominee with the highest marginal cost-performance ratio
// (f(N∪{(u,x)}) − f(N)) / c_{u,x}, where f places the nominees in the
// first promotion. CELF laziness (Goyal et al., exploited by the
// paper's implementation, Sec. VI-A) avoids re-evaluating every
// candidate per round: σ is submodular in this frozen-probability
// regime, so a stale gain is an upper bound.
//
// Evaluation is batched through the estimator's worker pool: the
// initial-gains pass scores the whole universe in one RunBatch with
// common random numbers (every candidate sees the same sample
// streams, so the gains are directly comparable), and stale entries
// are refreshed in waves of celfWaveSize instead of one heap-pop at a
// time. Entries re-scored below the true top are no bounds for later
// rounds: the next pick reseeds the estimator, so their keys become
// stale estimates from another stream (ROADMAP item 2 measures this).
//
// Selection stops when the budget is exhausted, the universe is empty,
// or the best marginal gain is non-positive (the negative-marginal
// stop of Lemma 3, case 2). It returns the selected nominees and the
// best single nominee seen (the emax of Theorem 3). A cancelled
// context aborts between rounds with the context's error.
func (s *solver) selectNominees(universe []cluster.Nominee, budget float64) (selected []cluster.Nominee, emax cluster.Nominee, emaxSigma float64, spent float64, err error) {
	p := s.p
	h := make(celfHeap, 0, len(universe))
	emaxSigma = -1
	emax = cluster.Nominee{User: -1, Item: -1}
	for _, nm := range universe {
		e := &celfEntry{nm: nm, lastEval: -1}
		h = append(h, e)
	}
	// initial gains: σ({(u,x,1)}) for every candidate, one batch
	groups := make([][]diffusion.Seed, len(h))
	for i, e := range h {
		groups[i] = []diffusion.Seed{{User: e.nm.User, Item: e.nm.Item, T: 1}}
	}
	initial := s.sigmaBatch(groups)
	if err = s.err(); err != nil {
		return nil, emax, emaxSigma, 0, err
	}
	for i, sig := range initial {
		e := h[i]
		e.gain = sig
		e.ratio = e.gain / (p.CostOf(e.nm.User, e.nm.Item) + 1e-12)
		e.lastEval = 0
		if e.gain > emaxSigma {
			emaxSigma = e.gain
			emax = e.nm
		}
	}
	heap.Init(&h)
	base := 0.0
	var seeds []diffusion.Seed
	// rebase is set after a pick until σ(seeds) is evaluated: it rides
	// the next wave as group 0, under the same estimator seed and so
	// with the same bits as a call of its own, or is evaluated alone
	// once the loop ends. A pick leaves every entry stale, so a wave
	// always follows one unless the heap empties first.
	rebase := false
	wave := make([]*celfEntry, 0, celfWaveSize)
	for h.Len() > 0 {
		if err = s.err(); err != nil {
			return nil, emax, emaxSigma, spent, err
		}
		top := h[0]
		cost := p.CostOf(top.nm.User, top.nm.Item)
		if cost > budget-spent {
			heap.Pop(&h) // unaffordable now; it will never fit again
			continue
		}
		if top.lastEval == len(selected) {
			if top.gain <= 0 {
				// Non-positive marginal under the current estimate:
				// discard this candidate and keep scanning the rest of
				// the universe (Procedure 2 stops only when U empties;
				// with a Monte-Carlo oracle a hard stop here would let
				// one noisy evaluation truncate the whole selection).
				heap.Pop(&h)
				continue
			}
			heap.Pop(&h)
			selected = append(selected, top.nm)
			seeds = append(seeds, diffusion.Seed{User: top.nm.User, Item: top.nm.Item, T: 1})
			spent += cost
			// Reseed and re-baseline: the winning gain is a max over
			// noisy evaluations and would otherwise deflate the next
			// round's marginals (winner's curse).
			s.est.Reseed(s.opt.Seed + uint64(len(selected))*0x9E3779B9)
			rebase = true
			continue
		}
		// stale: pop a wave of stale affordable entries off the top and
		// refresh their marginals against the current selection in one
		// batch (stopping at the first fresh entry — everything below
		// it may not need refreshing at all)
		wave = wave[:0]
		for len(wave) < cap(wave) && h.Len() > 0 {
			e := h[0]
			if e.lastEval == len(selected) {
				break
			}
			if p.CostOf(e.nm.User, e.nm.Item) > budget-spent {
				heap.Pop(&h)
				continue
			}
			heap.Pop(&h)
			wave = append(wave, e)
		}
		groups := make([][]diffusion.Seed, 0, 1+len(wave))
		if rebase {
			groups = append(groups, seeds)
		}
		for _, e := range wave {
			groups = append(groups, diffusion.WithSeed(seeds, diffusion.Seed{User: e.nm.User, Item: e.nm.Item, T: 1}))
		}
		sigmas := s.sigmaBatch(groups)
		if rebase {
			base, sigmas = sigmas[0], sigmas[1:]
			s.progress("select", len(selected), spent, base)
			rebase = false
		}
		for j, sig := range sigmas {
			e := wave[j]
			e.gain = sig - base
			e.ratio = e.gain / (p.CostOf(e.nm.User, e.nm.Item) + 1e-12)
			e.lastEval = len(selected)
			heap.Push(&h, e)
		}
	}
	if rebase {
		s.progress("select", len(selected), spent, s.sigma(seeds))
	}
	return selected, emax, emaxSigma, spent, nil
}
