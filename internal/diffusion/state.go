package diffusion

import (
	"math"
	"math/bits"
	"slices"

	"imdpp/internal/rng"
)

// State is the mutable per-sample simulation state: adoption sets,
// per-user meta-graph weightings and how many adoptions each user's
// preference delta covers. One State is reused across Monte-Carlo
// samples by each worker, and across the estimators of every problem
// over one substrate through its free list (statepool.go); Reset restores
// initial conditions touching only the rows dirtied by the previous
// sample, which keeps per-sample overhead proportional to cascade
// size rather than |V|·|I|.
//
// Memory layout (DESIGN.md §5): the adoption bitset is stored as
// lazily allocated per-user rows — a row exists only once the cascade
// dirties that user, and Reset recycles rows through a free pool. The
// preference delta is not stored at all: Pref sums it on demand over
// the first prefN[u] adoptions. A worker therefore retains O(|V|)
// slice headers and counters plus O(max cascade) row payload, never
// the dense |V|×|I| tables of the seed layout. Per-step new-adoption
// tracking uses an epoch-stamped array instead of a map, so the
// adopt/endOfStep hot path performs no map operations and no
// per-step clearing proportional to |V|.
type State struct {
	p     *Problem
	items int
	words int // bitset words per user

	adopted   [][]uint64 // per user, lazily allocated adoption bitset row
	adoptList [][]int32  // per user, adopted items in adoption order
	wmeta     []float64  // [u*numMeta .. ) meta-graph weightings
	prefN     []int32    // per user, adoptions the Δpref covers (deltaPref)
	dirty     []bool     // user rows needing reset
	touched   []int32    // dirty user list
	touchAt   []int32    // per dirty user, its index in touched
	rngv      rng.Rand   // sample stream, copied in by Reset
	// bound is the substrate's clean-target table for the problem's χ,
	// shared read-only (statepool.go): bound[u·items+x] holds p̄, the
	// largest purchase probability u gives a clean friend for item x,
	// and the skip scales of propagateFrom's two subset samplers.
	bound []cleanBound

	// zeroed bitset rows (len words), recycled across samples so
	// steady-state sampling allocates nothing
	wordPool [][]uint64

	// scratch
	frontier  []adoptEvent
	nextFront []adoptEvent
	// per-step new-adoption tracking: stepStamp[u] == stepEpoch marks u
	// as already queued this step; stepItems[u] holds u's newly adopted
	// items in adoption order
	stepStamp []uint32
	stepEpoch uint32
	stepItems [][]int32
	stepUsers []int32
	byPromo   [][]Seed // per-promotion seed partition, reused across samples

	// ckpts are the promotion-boundary checkpoints of the batch
	// engine's prefix reuse, reused across samples (DESIGN.md §3)
	ckpts []checkpoint

	// adoptLog lists, while logSteps is set, the users of every step's
	// new adoptions in step order; a checkpoint keeps its length, so
	// the users that adopted after it, whose rows restore copies back
	// and resumedPi recomputes around, are the log past that length.
	// runFrom sets logSteps when it captures checkpoints (DESIGN.md §3).
	adoptLog []int32
	logSteps bool

	// LikelihoodPi scratch, allocated on the first π call: per-item
	// accumulators, all zero between calls, and the items touched for
	// the current user; two user bitsets and per-user arc counts, all
	// zero between calls; the adopters (for resumedPi, the changed
	// adopters) in id order. piFull is the last full call's per-user
	// work and piRootRows the rows it read of the users that adopted
	// after a family's first cut, both kept for resumedPi; piChanged,
	// piDArcs, piMerged and piTerms are resumedPi's change set, the
	// changed adopters' arcs bucketed per changed user, and one changed
	// user's merged arcs and terms (DESIGN.md §5).
	piOneMinus []float64
	piSum      []float64
	piTouched  []int32
	piMark     []uint64
	piDMark    []uint64
	piCount    []int32
	piAdopters []int32
	piFull     piWork
	piRootRows checkpoint
	piChanged  []int32
	piDArcs    piArcs
	piMerged   piArcs
	piTerms    []float64

	// trace hook for case studies; nil on the hot path.
	OnAdopt func(user, item, promo, step int, trigger AdoptTrigger)
}

// AdoptTrigger says why an adoption happened.
type AdoptTrigger uint8

// Adoption causes.
const (
	TriggerSeed        AdoptTrigger = iota // seeded at ζ=0
	TriggerPromotion                       // friend promotion succeeded
	TriggerAssociation                     // item-association extra adoption
)

type adoptEvent struct {
	user int32
	item int32
}

// NewState allocates a state for problem p. Allocation is O(|V|) —
// per-user slice headers, counters and flags — plus O(|V|·numMeta)
// weighting floats; the O(|V|·|I|) adoption table of the seed layout
// is replaced by rows allocated lazily per dirtied user, and its
// preference table by deltaPref. The one |V|·|I| table a state reads,
// the clean-target bound, is built once per substrate and χ and shared
// by all their states.
func NewState(p *Problem) *State {
	n := p.NumUsers()
	items := p.NumItems()
	words := (items + 63) / 64
	st := &State{
		p:         p,
		items:     items,
		words:     words,
		adopted:   make([][]uint64, n),
		adoptList: make([][]int32, n),
		wmeta:     make([]float64, n*p.PIN.NumMeta()),
		prefN:     make([]int32, n),
		dirty:     make([]bool, n),
		touchAt:   make([]int32, n),
		stepStamp: make([]uint32, n),
		stepEpoch: 1,
		stepItems: make([][]int32, n),
		bound:     p.bound(p.Params.Chi),
	}
	// weightings start at the shared init vector; rows are lazily reset
	for u := 0; u < n; u++ {
		copy(st.wmeta[u*p.PIN.NumMeta():], p.PIN.InitWeights)
	}
	return st
}

// Reset restores the initial state, clearing only dirty rows. The
// generator is copied by value, so callers may hand in short-lived
// streams (e.g. master.Split(i)) without them escaping to the heap.
func (st *State) Reset(r *rng.Rand) {
	st.rewindTo(0)
	st.adoptLog, st.logSteps = st.adoptLog[:0], false
	st.rngv = *r
}

// resetSplit is Reset(master.Split(i)) without materialising the
// derived generator.
func (st *State) resetSplit(master *rng.Rand, i int) {
	st.rewindTo(0)
	st.adoptLog, st.logSteps = st.adoptLog[:0], false
	master.SplitInto(&st.rngv, uint64(i))
}

// rewindTo keeps the rows of the first n touched users, cleans the
// rest and empties the frontiers and per-step tracking.
func (st *State) rewindTo(n int) {
	st.cleanRows(st.touched[n:])
	st.touched = st.touched[:n]
	st.frontier = st.frontier[:0]
	st.nextFront = st.nextFront[:0]
	st.stepUsers = st.stepUsers[:0]
	st.bumpEpoch()
}

// cleanRows returns the given users to their initial rows: adoption
// rows zeroed into the pool, empty adoption lists, InitWeights, no
// Δpref.
func (st *State) cleanRows(users []int32) {
	nm := st.p.PIN.NumMeta()
	for _, u := range users {
		if row := st.adopted[u]; row != nil {
			for i := range row {
				row[i] = 0
			}
			st.wordPool = append(st.wordPool, row)
			st.adopted[u] = nil
		}
		st.adoptList[u] = st.adoptList[u][:0]
		copy(st.wmeta[int(u)*nm:(int(u)+1)*nm], st.p.PIN.InitWeights)
		st.prefN[u] = 0
		st.dirty[u] = false
	}
}

// checkpoint is a sparse snapshot of a State at a promotion boundary,
// taken by the batch engine so groups sharing leading promotions
// resume instead of re-simulating them (DESIGN.md §3). It holds the
// rows of the users touched so far, the sample stream and the Result
// so far. Frontiers and per-step tracking need no copy: every
// promotion starts them afresh. Its slices are reused across samples,
// so steady-state capture allocates nothing.
type checkpoint struct {
	users []int32   // st.touched at capture
	bits  []uint64  // adoption rows, words per user
	alist []int32   // adoption lists, concatenated in users order
	aend  []int32   // end offset of each user's list in alist
	wmeta []float64 // weightings, numMeta per user
	prefN []int32   // adoptions each user's Δpref covers
	logN  int       // len(st.adoptLog) at capture

	rngv             rng.Rand
	sigma, msigma    float64
	adoptions, steps int
	perItem          []float64
}

// capture stores the current state and res into checkpoint c.
func (st *State) capture(c int, res *Result) {
	for len(st.ckpts) <= c {
		st.ckpts = append(st.ckpts, checkpoint{})
	}
	cp := &st.ckpts[c]
	cp.keepRows(st, st.touched)
	cp.logN = len(st.adoptLog)
	cp.rngv = st.rngv
	cp.sigma, cp.msigma = res.Sigma, res.MarketSigma
	cp.adoptions, cp.steps = res.Adoptions, res.Steps
	cp.perItem = append(cp.perItem[:0], res.PerItem...)
}

// keepRows stores the rows of the given dirty users into cp.
func (cp *checkpoint) keepRows(st *State, users []int32) {
	cp.users = append(cp.users[:0], users...)
	cp.bits, cp.alist, cp.aend = cp.bits[:0], cp.alist[:0], cp.aend[:0]
	cp.wmeta, cp.prefN = cp.wmeta[:0], cp.prefN[:0]
	for _, u := range users {
		cp.bits = append(cp.bits, st.adopted[u]...)
		cp.alist = append(cp.alist, st.adoptList[u]...)
		cp.aend = append(cp.aend, int32(len(cp.alist)))
		cp.wmeta = append(cp.wmeta, st.Weights(int(u))...)
		cp.prefN = append(cp.prefN, st.prefN[u])
	}
}

// sameRow reports whether user u's row is the j-th row kept in cp, bit
// for bit: the same adoption list, in order (so the same adoption bits
// and dirty flag), Δpref coverage and weightings. Those are all a
// user's row holds.
func (st *State) sameRow(cp *checkpoint, j int, u int32) bool {
	start := int32(0)
	if j > 0 {
		start = cp.aend[j-1]
	}
	if st.prefN[u] != cp.prefN[j] || !slices.Equal(st.adoptList[u], cp.alist[start:cp.aend[j]]) {
		return false
	}
	nm := st.p.PIN.NumMeta()
	for k, w := range st.Weights(int(u)) {
		if math.Float64bits(w) != math.Float64bits(cp.wmeta[j*nm+k]) {
			return false
		}
	}
	return true
}

// restore rewinds the state and res to checkpoint c. The users
// captured there must be a prefix of st.touched — true whenever the
// state has only run forward from that checkpoint, or from a later
// checkpoint of the same run — so the users touched since are exactly
// st.touched past that prefix. A row changes only when its user
// adopts, so of the captured rows only those of users in the change
// log past the checkpoint are copied back.
func (st *State) restore(c int, res *Result) {
	cp := &st.ckpts[c]
	st.rewindTo(len(cp.users))
	nm := st.p.PIN.NumMeta()
	for _, u := range st.adoptLog[cp.logN:] {
		if !st.dirty[u] {
			continue // touched after the checkpoint: cleaned above
		}
		j := int(st.touchAt[u])
		start := int32(0)
		if j > 0 {
			start = cp.aend[j-1]
		}
		copy(st.adopted[u], cp.bits[j*st.words:(j+1)*st.words])
		st.adoptList[u] = append(st.adoptList[u][:0], cp.alist[start:cp.aend[j]]...)
		copy(st.Weights(int(u)), cp.wmeta[j*nm:(j+1)*nm])
		st.prefN[u] = cp.prefN[j]
	}
	st.rngv = cp.rngv
	res.Sigma, res.MarketSigma = cp.sigma, cp.msigma
	res.Adoptions, res.Steps = cp.adoptions, cp.steps
	copy(res.PerItem, cp.perItem)
}

func (cp *checkpoint) bytes() uint64 {
	return uint64(cap(cp.users)+cap(cp.alist)+cap(cp.aend)+cap(cp.prefN))*4 +
		uint64(cap(cp.bits)+cap(cp.wmeta)+cap(cp.perItem))*8
}

// bumpEpoch advances the per-step stamp epoch, handling the (purely
// theoretical) uint32 wraparound by rebasing all stamps.
func (st *State) bumpEpoch() {
	st.stepEpoch++
	if st.stepEpoch == 0 {
		for i := range st.stepStamp {
			st.stepStamp[i] = 0
		}
		st.stepEpoch = 1
	}
}

// Problem returns the problem this state simulates.
func (st *State) Problem() *Problem { return st.p }

// Adopted reports whether user u has adopted item x.
func (st *State) Adopted(u, x int) bool {
	row := st.adopted[u]
	if row == nil {
		return false
	}
	return row[x/64]&(1<<(uint(x)%64)) != 0
}

// AdoptedList returns user u's adopted items in adoption order; the
// slice must not be modified.
func (st *State) AdoptedList(u int) []int32 { return st.adoptList[u] }

// markAdopted sets the adoption bit and bookkeeping; callers must have
// checked Adopted first.
func (st *State) markAdopted(u, x int) {
	row := st.adopted[u]
	if row == nil {
		if n := len(st.wordPool); n > 0 {
			row = st.wordPool[n-1]
			st.wordPool = st.wordPool[:n-1]
		} else {
			row = make([]uint64, st.words)
		}
		st.adopted[u] = row
	}
	row[x/64] |= 1 << (uint(x) % 64)
	st.adoptList[u] = append(st.adoptList[u], int32(x))
	if !st.dirty[u] {
		st.dirty[u] = true
		st.touchAt[u] = int32(len(st.touched))
		st.touched = append(st.touched, int32(u))
	}
}

// ForceAdopt makes user u adopt item x outside a campaign (scripted
// scenarios, case studies, examples), applying the end-of-step factor
// updates immediately: weighting update, then the preference delta
// covers every adoption.
func (st *State) ForceAdopt(u, x int) {
	if st.Adopted(u, x) {
		return
	}
	st.markAdopted(u, x)
	if st.p.Params.Static {
		return
	}
	if len(st.adoptList[u]) > 1 {
		st.p.PIN.UpdateWeights(st.Weights(u), []int32{int32(x)}, st.adopted[u], st.p.Params.Eta)
	}
	st.prefN[u] = int32(len(st.adoptList[u]))
}

// Weights returns user u's meta-graph weighting vector (mutable view).
func (st *State) Weights(u int) []float64 {
	nm := st.p.PIN.NumMeta()
	return st.wmeta[u*nm : (u+1)*nm]
}

// Pref returns Ppref(u, y) under the current state: the base
// preference plus the cross-elasticity delta over the adoptions the
// last end-of-step update covered (deltaPref), clamped to [0,1]. Under
// Params.Static, and for a user with no update yet, the delta is 0.
func (st *State) Pref(u, y int) float64 {
	v := st.p.BasePref.At(u, y)
	if n := st.prefN[u]; n > 0 {
		v += st.deltaPref(u, y, int(n))
	}
	return clampPref(v)
}

// clampPref clamps a preference to [0,1]. It is the whole of Pref for a
// clean user, whose Δpref is 0, so the engine's hot loops read a clean
// user's preference as clampPref of its base preference (DESIGN.md §3).
// It keeps two compares rather than max and min, which would turn −0
// into +0 (max(−0, 0) is +0): −0 and NaN come back with their own bits.
func clampPref(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Act returns Pact(u, v) for the arc with base strength baseW:
// base·(1+γ·sim(u,v)) clamped to 1, where sim blends adoption-set
// Jaccard similarity with weighting-vector cosine (influence
// learning, Sec. V-A(3)). Under Params.Static it returns baseW.
func (st *State) Act(u, v int, baseW float64) float64 {
	if st.p.Params.Static || st.p.Params.Gamma == 0 {
		return baseW
	}
	sim := st.similarity(u, v)
	if sim == 0 {
		return baseW
	}
	w := baseW * (1 + st.p.Params.Gamma*sim)
	if w > 1 {
		return 1
	}
	return w
}

// similarity is ½·Jaccard(A(u),A(v)) + ½·cos(Wmeta(u),Wmeta(v)) when
// the users share at least one adoption, else just the Jaccard term
// (which is then 0 unless one set is empty — friends with no common
// items have not grown closer).
func (st *State) similarity(u, v int) float64 {
	bu, bv := st.adopted[u], st.adopted[v]
	if bu == nil || bv == nil {
		return 0 // an empty adoption set intersects nothing
	}
	var inter, union int
	for i := 0; i < st.words; i++ {
		inter += bits.OnesCount64(bu[i] & bv[i])
		union += bits.OnesCount64(bu[i] | bv[i])
	}
	if union == 0 || inter == 0 {
		return 0
	}
	jac := float64(inter) / float64(union)
	nm := st.p.PIN.NumMeta()
	cos := cosRange(st.wmeta[u*nm:(u+1)*nm], st.wmeta[v*nm:(v+1)*nm])
	return 0.5*jac + 0.5*cos
}

func cosRange(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	// normalised dot; both vectors are non-negative so result ∈ [0,1]
	return dot / math.Sqrt(na*nb)
}

// deltaPref returns user u's preference delta for item y over its
// first n adoptions, in adoption order, under its current weights:
//
//	Δpref(u,y) = λ · Σ_{a∈A(u)[:n]} (rC(u,a,y) − rS(u,a,y))
//
// The sum starts from 0 and adds the terms in adoption order, the
// order the bit-identity goldens pin (DESIGN.md §3). It is exact
// because weights move only in UpdateWeights, which always runs just
// before prefN is set: the weights now are the weights of that update.
// A user with one adoption still has InitWeights (DESIGN.md §3), so
// its term comes from the cached init relevance, bit-identical to
// EvalContribs under them.
func (st *State) deltaPref(u, y, n int) float64 {
	pm := st.p.PIN
	lam := st.p.Params.Lambda
	lst := st.adoptList[u]
	d := 0.0
	if n == 1 {
		a := int(lst[0])
		if j := pm.Find(a, y); j >= 0 {
			init := pm.InitRow(a)[j]
			d += lam * (init.RC - init.RS)
		}
		return d
	}
	w := st.Weights(u)
	for _, a := range lst[:n] {
		if j := pm.Find(int(a), y); j >= 0 {
			rc, rs := pm.EvalContribs(w, pm.Row(int(a))[j].Contribs)
			d += lam * (rc - rs)
		}
	}
	return d
}

// MemoryFootprint returns the approximate number of heap bytes the
// state currently retains, counting per-user slice headers, live and
// pooled rows, checkpoint rows and scratch buffers. Per-worker memory
// scales with the largest cascade simulated so far (checkpoints add
// O(checkpoints × dirty users) rows), not with |V|·|I|; the solver
// reports it as Stats.StateBytesPerWorker (state_bytes_per_worker).
// The walk is O(|V|); an estimator pays it once per state it puts back
// to the pool, not per sample.
func (st *State) MemoryFootprint() uint64 {
	const (
		headerBytes = 24 // slice header
		eventBytes  = 8  // adoptEvent
	)
	b := uint64(0)
	b += uint64(cap(st.adopted)) * headerBytes
	for _, row := range st.adopted {
		b += uint64(cap(row)) * 8
	}
	b += uint64(len(st.wordPool)*st.words) * 8
	b += uint64(cap(st.adoptList)) * headerBytes
	for _, l := range st.adoptList {
		b += uint64(cap(l)) * 4
	}
	b += uint64(cap(st.wmeta)) * 8
	b += uint64(cap(st.prefN)) * 4
	b += uint64(cap(st.dirty))
	b += uint64(cap(st.touched)+cap(st.touchAt)) * 4
	b += uint64(cap(st.frontier)+cap(st.nextFront)) * eventBytes
	b += uint64(cap(st.stepStamp)) * 4
	b += uint64(cap(st.stepItems)) * headerBytes
	for _, l := range st.stepItems {
		b += uint64(cap(l)) * 4
	}
	b += uint64(cap(st.stepUsers)) * 4
	b += uint64(cap(st.adoptLog)) * 4
	b += uint64(cap(st.piOneMinus)+cap(st.piSum)+cap(st.piMark)+cap(st.piDMark)+cap(st.piTerms)) * 8
	b += uint64(cap(st.piTouched)+cap(st.piCount)+cap(st.piAdopters)+cap(st.piChanged)) * 4
	b += st.piFull.bytes() + st.piDArcs.bytes() + st.piMerged.bytes() + st.piRootRows.bytes()
	for i := range st.ckpts {
		b += st.ckpts[i].bytes()
	}
	return b
}
