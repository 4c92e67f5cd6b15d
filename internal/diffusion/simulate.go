package diffusion

import (
	"math"

	"imdpp/internal/pin"
	"imdpp/internal/rng"
)

// Result accumulates the outcome of one simulated campaign.
type Result struct {
	// Sigma is the importance-weighted adoption count Σ w_x·n_x.
	Sigma float64
	// MarketSigma is Sigma restricted to users of the market mask
	// passed to RunCampaign (equal to Sigma when mask is nil).
	MarketSigma float64
	// PerItem is the unweighted adoption count per item.
	PerItem []float64
	// Adoptions is the total number of (user,item) adoptions.
	Adoptions int
	// Steps is the total number of diffusion steps over all promotions.
	Steps int
}

// RunCampaign simulates one realisation of the full T-promotion
// campaign for the seed group. market, when non-nil, marks the users
// whose adoptions count toward MarketSigma. The state must have been
// Reset with a fresh RNG stream. Results are accumulated into res.
func (st *State) RunCampaign(seeds []Seed, market []bool, res *Result) {
	st.runFrom(seeds, 0, market, res, nil)
}

// runFrom runs promotions from+1..T of the seed group, leaving a
// checkpoint after every promotion listed in cuts (ascending; the
// checkpoint of cuts[c] is st.ckpts[c]). from > 0 resumes a state
// restored to the boundary after promotion from.
func (st *State) runFrom(seeds []Seed, from int, market []bool, res *Result, cuts []int) {
	p := st.p
	if res.PerItem == nil {
		res.PerItem = make([]float64, st.items)
	}
	if cap(st.byPromo) < p.T+1 {
		st.byPromo = make([][]Seed, p.T+1)
	}
	byPromo := st.byPromo[:p.T+1]
	for t := range byPromo {
		byPromo[t] = byPromo[t][:0]
	}
	for _, s := range seeds {
		byPromo[s.T] = append(byPromo[s.T], s)
	}
	c := 0
	for t := from + 1; t <= p.T; t++ {
		st.runPromotion(t, byPromo[t], market, res)
		if c < len(cuts) && cuts[c] == t {
			st.capture(c, res)
			c++
		}
	}
}

// runPromotion executes promotion t: seed adoptions at ζ=0, then
// propagation steps until no new adoptions.
func (st *State) runPromotion(t int, seeds []Seed, market []bool, res *Result) {
	st.frontier = st.frontier[:0]
	// ζ = 0: seeded users newly adopt the promoted items.
	clearStep(st)
	for _, s := range seeds {
		if st.Adopted(s.User, s.Item) {
			// A re-seeded user promotes the already-adopted item to
			// neighbours again ("these nominees can still try to
			// promote their neighbors in the second promotion since
			// they are chosen as new seeds again", Lemma 1 proof) —
			// no new adoption is counted.
			st.frontier = append(st.frontier, adoptEvent{user: int32(s.User), item: int32(s.Item)})
			continue
		}
		st.adopt(s.User, s.Item, t, 0, TriggerSeed, market, res)
	}
	st.endOfStep()
	res.Steps++
	for step := 1; step <= st.p.Params.MaxSteps && len(st.frontier) > 0; step++ {
		st.nextFront = st.nextFront[:0]
		cur := st.frontier
		clearStep(st)
		for _, ev := range cur {
			st.propagateFrom(ev, t, step, market, res)
		}
		st.endOfStep()
		st.frontier, st.nextFront = st.nextFront, st.frontier
		res.Steps++
	}
}

// propagateFrom lets u′ (who newly adopted x last step) promote x to
// every friend who has not adopted it.
//
// Every draw is taken from s, a copy of the sample stream held in
// locals for the whole call and written back once at its end
// (DESIGN.md §3). That is sound because nothing in between draws from
// st.rngv: adopt and OnAdopt never draw. There is no defer: a
// deferred SetStream would capture s when the defer runs, not at exit.
func (st *State) propagateFrom(ev adoptEvent, t, step int, market []bool, res *Result) {
	p := st.p
	uPrime := int(ev.user)
	x := int(ev.item)
	arcs := p.G.Out(uPrime)
	s := st.rngv.Stream()
	var hit bool
	for ai, to := range arcs.To {
		u := int(to)
		if st.Adopted(u, x) {
			continue
		}
		pact := st.Act(uPrime, u, arcs.W[ai])
		prefX := st.Pref(u, x)
		// Purchase decision: influence strength × preference [51].
		if s, hit = s.Bernoulli(pact * prefX); hit {
			st.adopt(u, x, t, step, TriggerPromotion, market, res)
		}
		// Item associations (Sec. V-A(4)): being promoted x may trigger
		// extra adoptions of relevant items regardless of the purchase
		// decision on x itself (footnote 9).
		base := p.Params.Chi * pact * prefX
		if !(p.Params.Chi > 0 && base > 0) {
			continue
		}
		// Both branches below adopt each row entry y not yet adopted
		// by u independently with probability base·rC(u,x,y). u's
		// adoption row is nil for a clean user (no adoption this
		// sample); a non-nil one is not reallocated within a sample, so
		// it is read once and still sees adoptions made by this loop.
		row := p.PIN.Row(x)
		arow := st.adopted[u]
		if !st.dirty[u] || p.Params.Static || len(st.adoptList[u]) == 1 {
			// u's weights are InitWeights: a clean user has none of its
			// own, Static freezes them, and one adoption cannot move
			// them (DESIGN.md §3). Weights move only in endOfStep, so
			// this loop's own adoptions cannot invalidate the cached
			// init relevance, and assocNext samples the row against it.
			init := p.PIN.InitRow(x)
			maxRC := p.PIN.InitMaxRC(x)
			for j := 0; ; j++ {
				if s, j = assocNext(s, row, init, arow, j, base, maxRC); j == len(row) {
					break
				}
				st.adopt(u, int(row[j].Y), t, step, TriggerAssociation, market, res)
			}
			continue
		}
		w := st.Weights(u)
		for _, pr := range row {
			if adoptedIn(arow, pr.Y) {
				continue
			}
			rc, _ := p.PIN.EvalContribs(w, pr.Contribs)
			if rc > 0 {
				if s, hit = s.Bernoulli(base * rc); hit {
					st.adopt(u, int(pr.Y), t, step, TriggerAssociation, market, res)
				}
			}
		}
	}
	st.rngv.SetStream(s)
}

// assocNext returns the first entry at or after j of an association
// row that the sample picks, or len(row) when none is left, and the
// advanced stream. init is the row's cached init relevance, maxRC its
// largest RC and arow the user's adoption bitset row (nil when the
// user has adopted nothing). Over a whole row each entry k the user has
// not adopted is picked independently with probability
// base·init[k].RC; base must be positive. Rows are strictly ascending
// in Y, so an entry the walk has not reached is adopted only if it was
// before the walk began.
//
// The row is subset-sampled with q = min(base·maxRC, 1): a geometric
// skip lands on each entry with probability q, the next landing being
// ⌊log1p(−v)/log1p(−q)⌋ entries on for a uniform v, and a landing is
// accepted with probability base·RC/q, or rejected outright on an
// adopted entry. v ≥ n·q means no landing among the n entries left,
// since 1−(1−q)ⁿ ≤ n·q, so most rows end on one draw and no logarithm.
// At q = 1, which base·maxRC ≥ 1 (a Chi of 1 or more) clamps to,
// log1p(−1) = −Inf makes every skip 0, so each entry is landed on and
// accepted with probability base·RC. Each skip draws one uniform; each
// landing draws one coin unless its entry is adopted or its acceptance
// probability is 0 or at least 1 (DESIGN.md §3).
func assocNext(s rng.Stream, row []pin.PairRel, init []pin.RelInit, arow []uint64, j int, base, maxRC float64) (rng.Stream, int) {
	n := len(row)
	// A landing is accepted with probability RC/div = base·RC/q.
	q, div := base*maxRC, maxRC
	if q >= 1 {
		q, div = 1, 1/base
	}
	var (
		v   float64
		hit bool
	)
	for q > 0 && j < n {
		s, v = s.Float64()
		left := float64(n - j)
		if v >= left*q {
			break
		}
		k := math.Log1p(-v) / math.Log1p(-q)
		if k >= left {
			break
		}
		j += int(k)
		if !adoptedIn(arow, row[j].Y) {
			if s, hit = s.Bernoulli(init[j].RC / div); hit {
				return s, j
			}
		}
		j++
	}
	return s, n
}

// adoptedIn reports whether the adoption bitset row arow (nil: nothing
// adopted) holds item y.
func adoptedIn(arow []uint64, y int32) bool {
	return arow != nil && arow[uint(y)/64]&(1<<(uint(y)%64)) != 0
}

// adopt finalises an adoption: bookkeeping, σ accounting, frontier and
// per-step update queues, trace hook.
func (st *State) adopt(u, x, t, step int, trig AdoptTrigger, market []bool, res *Result) {
	st.markAdopted(u, x)
	w := st.p.Importance[x]
	res.Sigma += w
	if market == nil || market[u] {
		res.MarketSigma += w
	}
	res.PerItem[x]++
	res.Adoptions++
	if step == 0 {
		st.frontier = append(st.frontier, adoptEvent{user: int32(u), item: int32(x)})
	} else {
		st.nextFront = append(st.nextFront, adoptEvent{user: int32(u), item: int32(x)})
	}
	if st.stepStamp[u] != st.stepEpoch {
		st.stepStamp[u] = st.stepEpoch
		st.stepItems[u] = st.stepItems[u][:0]
		st.stepUsers = append(st.stepUsers, int32(u))
	}
	st.stepItems[u] = append(st.stepItems[u], int32(x))
	if st.OnAdopt != nil {
		st.OnAdopt(u, x, t, step, trig)
	}
}

// endOfStep applies the end-of-step factor updates (Sec. III): for
// every user with new adoptions this step, update the meta-graph
// weightings (relevance measurement) and then extend the preference
// delta over every adoption so far (preference estimation, summed on
// demand by Pref). Influence learning is evaluated lazily in Act from
// the updated adoption sets and weightings. A user's first
// adoption has no other adopted item to support it, so the weighting
// update is skipped for single-adoption users (DESIGN.md §3).
func (st *State) endOfStep() {
	if st.p.Params.Static {
		clearStep(st)
		return
	}
	for _, u := range st.stepUsers {
		if len(st.adoptList[u]) > 1 {
			st.p.PIN.UpdateWeights(st.Weights(int(u)), st.stepItems[u], st.adopted[u], st.p.Params.Eta)
		}
		st.prefN[u] = int32(len(st.adoptList[u]))
	}
	clearStep(st)
}

// clearStep retires the current step's new-adoption tracking by
// advancing the stamp epoch — O(users touched this step), no map
// deletes, no |V| sweep.
func clearStep(st *State) {
	st.stepUsers = st.stepUsers[:0]
	st.bumpEpoch()
}
