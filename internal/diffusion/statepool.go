package diffusion

import (
	"math"
	"sync"
)

// maxParked bounds the warm states one substrate's free list keeps. It
// only needs to cover the states its estimators hold at once (a batch
// borrows one per worker goroutine); a state put back to a full list
// is left to the garbage collector.
const maxParked = 16

// boundTable is a substrate's clean-target table for one χ, built on
// first use and shared read-only by every state that simulates with
// that χ (DESIGN.md §5).
type boundTable struct {
	once sync.Once
	b    []cleanBound
}

// bound returns s's clean-target table for χ, building it on first
// use. The table derives from G, BasePref and PIN, which s holds, and
// from χ, so campaigns over s that share χ share one table.
func (s *Substrate) bound(chi float64) []cleanBound {
	k := math.Float64bits(chi)
	s.mu.Lock()
	t := s.bounds[k]
	if t == nil {
		if s.bounds == nil {
			s.bounds = make(map[uint64]*boundTable)
		}
		t = &boundTable{}
		s.bounds[k] = t
	}
	s.mu.Unlock()
	t.once.Do(func() { t.b = buildBound(s, chi) })
	return t.b
}

// cleanBound is one (u′, x) cell of a substrate's clean-target table,
// everything propagateFrom's two subset samplers need of the event
// (u′, x) before a landing (DESIGN.md §3): p̄ and the skip scales of
// the purchase sampler, landing with q = min(p̄, 1), and of the
// association sampler, landing with qa = min(χ·p̄·InitMaxRC(x), 1).
// One cell is one read.
type cleanBound struct {
	pbar, scale, scaleA float64
}

// buildBound derives the clean-target table of s for χ. Cell u′·|I|+x
// holds p̄, the largest W_a·clampPref(P0(v_a, x)) over u′'s out-arcs
// a → v_a, the purchase probability propagateFrom gives a clean
// friend, or 0 for a user with no out-arcs; and skipScale of q and qa.
// The maximum is taken with v > m from 0, so a NaN product (NaN base
// preferences pass Problem.Validate) is skipped rather than poisoning
// the whole bound, as Go's max would, and −0 and negative products
// leave it at 0; every cell is then finite.
func buildBound(s *Substrate, chi float64) []cleanBound {
	items := s.NumItems()
	b := make([]cleanBound, s.NumUsers()*items)
	for u := range s.NumUsers() {
		m := b[u*items : (u+1)*items]
		arcs := s.G.Out(u)
		for ai, to := range arcs.To {
			w := arcs.W[ai]
			for x, v := range s.BasePref.Row(int(to)) {
				if pa := w * clampPref(v); pa > m[x].pbar {
					m[x].pbar = pa
				}
			}
		}
		for x := range m {
			pbar := m[x].pbar
			m[x].scale = skipScale(min(pbar, 1))
			m[x].scaleA = skipScale(min(chi*pbar*s.PIN.InitMaxRC(x), 1))
		}
	}
	return b
}

// getState borrows a warm state from e.P's substrate, shared by every
// Estimator of every Problem over it (DESIGN.md §5): service σ
// queries, a solve's selection and scheduling estimators and shard
// worker requests, across campaigns. It allocates one when the free
// list is empty. A state depends only on the substrate; the campaign
// and the table of its χ are set per borrow.
func (e *Estimator) getState() *State {
	s := e.P.Substrate
	s.mu.Lock()
	n := len(s.free)
	if n == 0 {
		s.mu.Unlock()
		return NewState(e.P)
	}
	st := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	s.mu.Unlock()
	st.p, st.bound = e.P, s.bound(e.P.Params.Chi)
	return st
}

// putState records st's footprint for StateBytes and parks it on its
// substrate's free list.
func (e *Estimator) putState(st *State) {
	b := st.MemoryFootprint()
	for {
		old := e.stateBytes.Load()
		if b <= old || e.stateBytes.CompareAndSwap(old, b) {
			break
		}
	}
	s := st.p.Substrate
	s.mu.Lock()
	if len(s.free) < maxParked {
		s.free = append(s.free, st)
	}
	s.mu.Unlock()
}

// StateBytes returns the largest memory footprint of the states this
// estimator returned to its substrate's free list — the per-worker
// cost of the sampling hot path. With the sparse State layout this
// scales with the largest cascade simulated, not with |V|·|I|. A state
// borrowed warm may carry rows grown by another estimator of the same
// substrate; its footprint counts here too, since this estimator held
// it.
func (e *Estimator) StateBytes() uint64 { return e.stateBytes.Load() }
