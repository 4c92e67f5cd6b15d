package diffusion

import (
	"runtime"
	"sync"
	"weak"
)

// maxParked bounds the warm states one problem's free list keeps. It
// only needs to cover the states a problem's estimators hold at once
// (a batch borrows one per worker goroutine); a state put back to a
// full list is left to the garbage collector.
const maxParked = 16

// statePool is one problem's free list of warm simulation states,
// shared by every Estimator of that problem (DESIGN.md §5): service σ
// queries, a solve's selection and scheduling estimators and shard
// worker requests all borrow from it, so a query on a warm problem
// builds no State. A parked state holds no *Problem (State.p is nil
// until getState hands it out again), so nothing in a pool keeps its
// problem alive.
//
// Beside the free list it holds the problem's clean-target table
// (buildBound), built on the first NewState and shared read-only by
// every state of the problem, so no query or state pays for it again.
// The table derives from the problem's G, BasePref, PIN and Chi; the
// pool is keyed by the *Problem, so a copy with another Chi builds its
// own.
type statePool struct {
	mu   sync.Mutex
	free []*State

	boundOnce sync.Once
	bound     []cleanBound
}

// statePools maps each live problem to its free list. It lives beside
// the Problem rather than in it because a Problem is a plain value that
// callers copy (dysimbench's static run copies one), which a lock
// inside it would forbid. The keys are weak, and a cleanup attached to
// the problem deletes its entry once the problem is collected, so the
// registry neither extends a problem's lifetime nor outlives it. A
// by-value copy of a Problem is a new key with its own list.
var statePools struct {
	mu sync.Mutex
	m  map[weak.Pointer[Problem]]*statePool
}

// poolOf returns p's free list, registering it on first use.
func poolOf(p *Problem) *statePool {
	k := weak.Make(p)
	statePools.mu.Lock()
	defer statePools.mu.Unlock()
	sp := statePools.m[k]
	if sp == nil {
		if statePools.m == nil {
			statePools.m = make(map[weak.Pointer[Problem]]*statePool)
		}
		sp = &statePool{}
		statePools.m[k] = sp
		runtime.AddCleanup(p, dropPool, k)
	}
	return sp
}

// boundOf returns p's clean-target table, building it on first use.
func (sp *statePool) boundOf(p *Problem) []cleanBound {
	sp.boundOnce.Do(func() { sp.bound = buildBound(p) })
	return sp.bound
}

// cleanBound is one (u′, x) cell of a problem's clean-target table,
// everything propagateFrom's two subset samplers need of the event
// (u′, x) before a landing (DESIGN.md §3): p̄ and the skip scales of
// the purchase sampler, landing with q = min(p̄, 1), and of the
// association sampler, landing with qa = min(χ·p̄·InitMaxRC(x), 1).
// One cell is one read.
type cleanBound struct {
	pbar, scale, scaleA float64
}

// buildBound derives the clean-target table from p. Cell u′·|I|+x
// holds p̄, the largest W_a·clampPref(P0(v_a, x)) over u′'s out-arcs
// a → v_a, the purchase probability propagateFrom gives a clean
// friend, or 0 for a user with no out-arcs; and skipScale of q and qa.
// The maximum is taken with v > m from 0, so a NaN product (NaN base
// preferences pass Problem.Validate) is skipped rather than poisoning
// the whole bound, as Go's max would, and −0 and negative products
// leave it at 0; every cell is then finite.
func buildBound(p *Problem) []cleanBound {
	items := p.NumItems()
	chi := p.Params.Chi
	b := make([]cleanBound, p.NumUsers()*items)
	for u := range p.NumUsers() {
		m := b[u*items : (u+1)*items]
		arcs := p.G.Out(u)
		for ai, to := range arcs.To {
			w := arcs.W[ai]
			for x, v := range p.BasePref.Row(int(to)) {
				if pa := w * clampPref(v); pa > m[x].pbar {
					m[x].pbar = pa
				}
			}
		}
		for x := range m {
			pbar := m[x].pbar
			m[x].scale = skipScale(min(pbar, 1))
			m[x].scaleA = skipScale(min(chi*pbar*p.PIN.InitMaxRC(x), 1))
		}
	}
	return b
}

// dropPool deletes a collected problem's free list.
func dropPool(k weak.Pointer[Problem]) {
	statePools.mu.Lock()
	delete(statePools.m, k)
	statePools.mu.Unlock()
}

// getState borrows a warm state of e.P from the problem's free list,
// allocating one when the list is empty.
func (e *Estimator) getState() *State {
	sp := poolOf(e.P)
	sp.mu.Lock()
	n := len(sp.free)
	if n == 0 {
		sp.mu.Unlock()
		return NewState(e.P)
	}
	st := sp.free[n-1]
	sp.free[n-1] = nil
	sp.free = sp.free[:n-1]
	sp.mu.Unlock()
	st.p = e.P
	return st
}

// putState records st's footprint for StateBytes and parks it on its
// problem's free list without the problem pointer.
func (e *Estimator) putState(st *State) {
	b := st.MemoryFootprint()
	for {
		old := e.stateBytes.Load()
		if b <= old || e.stateBytes.CompareAndSwap(old, b) {
			break
		}
	}
	sp := poolOf(st.p)
	st.p = nil
	sp.mu.Lock()
	if len(sp.free) < maxParked {
		sp.free = append(sp.free, st)
	}
	sp.mu.Unlock()
}

// StateBytes returns the largest memory footprint of the states this
// estimator returned to its problem's free list — the per-worker cost
// of the sampling hot path. With the sparse State layout this scales
// with the largest cascade simulated, not with |V|·|I|. A state
// borrowed warm may carry rows grown by another estimator of the same
// problem; its footprint counts here too, since this estimator held it.
func (e *Estimator) StateBytes() uint64 { return e.stateBytes.Load() }
