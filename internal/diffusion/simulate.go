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
// restored to the boundary after promotion from. Checkpoints turn the
// change log on until the next Reset: restore reads it.
func (st *State) runFrom(seeds []Seed, from int, market []bool, res *Result, cuts []int) {
	p := st.p
	st.logSteps = st.logSteps || len(cuts) > 0
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
// A clean friend (no adoption this sample) holds its initial state
// (DESIGN.md §3): it has not adopted x, its Pact is the arc weight and
// its preference is the clamped base preference, so its purchase and
// association probabilities are p_a = W_a·clampPref(P0(u_a, x)) and
// χ·p_a·rC_j under the cached init relevance. Clean friends are not
// visited coin by coin: two subset samplers run over the out-list in
// arc order, one landing on each clean friend with q = min(p̄, 1) for
// the purchase and one on each (clean friend, row entry) pair with
// qa = min(χ·p̄·maxRC, 1) for the associations, where p̄ is u′'s
// largest p_a over its out-arcs, read with both samplers' skip scales
// from st.bound. A landing is accepted with p_a/q or χ·p_a·rC_j/qa,
// and a clean friend no sampler lands on costs two counter decrements
// (DESIGN.md §3, "Subset-sampled clean targets"). Each skip takes one
// Exp draw and no logarithm. A dirty friend takes Act and Pref and its
// own coins, as before.
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
	chi := p.Params.Chi
	row := p.PIN.Row(x)
	init := p.PIN.InitRow(x)
	n, r := len(arcs.To), len(row)
	s := st.rngv.Stream()
	var (
		hit, ok bool
		ns      rng.Stream // the stream after an Exp draw
		e       float64
	)
	// pk counts the clean friends before the next purchase landing, ak
	// the clean (friend, entry) pairs before the next association
	// landing, from the friend being visited; n and n·r mean none
	pk, ak := n, n*r
	b := st.bound[uPrime*st.items+x]
	q := min(b.pbar, 1)
	if q > 0 {
		if ns, e, ok = s.ExpFast(); !ok {
			ns, e = s.Exp()
		}
		s, pk = ns, skip(e, b.scale, n)
	}
	qa := min(chi*b.pbar*p.PIN.InitMaxRC(x), 1)
	if qa > 0 {
		if ns, e, ok = s.ExpFast(); !ok {
			ns, e = s.Exp()
		}
		s, ak = ns, skip(e, b.scaleA, n*r)
	}
	for ai, to := range arcs.To {
		u := int(to)
		if !st.dirty[u] {
			if pk > 0 && ak >= r {
				pk--
				ak -= r
				continue
			}
			pa := arcs.W[ai] * clampPref(p.BasePref.At(u, x))
			left := n - ai - 1
			if pk == 0 {
				// Purchase decision: influence strength × preference [51].
				if s, hit = s.Bernoulli(pa / q); hit {
					st.adopt(u, x, t, step, TriggerPromotion, market, res)
				}
				if left > 0 {
					if ns, e, ok = s.ExpFast(); !ok {
						ns, e = s.Exp()
					}
					s, pk = ns, skip(e, b.scale, left)
				}
			} else {
				pk--
			}
			// Item associations (Sec. V-A(4)), regardless of the
			// purchase decision on x itself (footnote 9). u's adoption
			// row is nil unless this visit adopted.
			for ak < r {
				j := ak
				if !adoptedIn(st.adopted[u], row[j].Y) {
					if s, hit = s.Bernoulli(chi * pa * init[j].RC / qa); hit {
						st.adopt(u, int(row[j].Y), t, step, TriggerAssociation, market, res)
					}
				}
				// the pairs from this friend's first to the out-list's end
				if ak = r + left*r; ak > j+1 {
					if ns, e, ok = s.ExpFast(); !ok {
						ns, e = s.Exp()
					}
					s, ak = ns, j+1+skip(e, b.scaleA, ak-j-1)
				}
			}
			ak -= r
			continue
		}
		if st.Adopted(u, x) {
			continue
		}
		pact, prefX := st.Act(uPrime, u, arcs.W[ai]), st.Pref(u, x)
		// Purchase decision: influence strength × preference [51].
		if s, hit = s.Bernoulli(pact * prefX); hit {
			st.adopt(u, x, t, step, TriggerPromotion, market, res)
		}
		// Item associations (Sec. V-A(4)): being promoted x may trigger
		// extra adoptions of relevant items regardless of the purchase
		// decision on x itself (footnote 9).
		base := chi * pact * prefX
		if !(chi > 0 && base > 0) {
			continue
		}
		// Both branches below adopt each row entry y not yet adopted
		// by u independently with probability base·rC(u,x,y). u's
		// adoption row is not reallocated within a sample, so it is
		// read once and still sees adoptions made by this loop.
		arow := st.adopted[u]
		if p.Params.Static || len(st.adoptList[u]) == 1 {
			// u's weights are InitWeights: Static freezes them, and one
			// adoption cannot move them (DESIGN.md §3). Weights move
			// only in endOfStep, so this loop's own adoptions cannot
			// invalidate the cached init relevance, and assocNext
			// samples the row against it.
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

// skip returns where a subset sampler lands next: of the next left
// trials, each landed on independently with probability q (0 < q ≤
// 1), how many come before the first landing, or left when none lands,
// given an Exp(1) variate e and the skip scale 1/λ of q (skipScale).
// ⌊e/λ⌋ is geometric, P(⌊e/λ⌋ ≥ k) = e^(−kλ) = (1−q)^k, so e·scale ≥
// left is the exact no-landing test, and no branch of skip takes a
// logarithm. assocNext and propagateFrom's clean-target samplers all
// skip through it (DESIGN.md §3); it inlines. A NaN product (e = 0 at
// an infinite scale) lands nowhere.
func skip(e, scale float64, left int) int {
	if k := e * scale; k < float64(left) {
		return int(k)
	}
	return left
}

// skipScale returns 1/λ = −1/log1p(−q), the scale that turns an Exp(1)
// variate into the geometric skip of landing probability q, or 0 when
// q is not in (0, 1): at q = 1 every skip is 0 (every trial lands), and
// at q ≤ 0 no sampler draws.
func skipScale(q float64) float64 {
	if !(q > 0 && q < 1) {
		return 0
	}
	return -1 / math.Log1p(-q)
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
// ⌊E/λ⌋ entries on for an Exp(1) variate E and λ = −log1p(−q), and a
// landing is accepted with probability base·RC/q, or rejected outright
// on an adopted entry. q varies by user, so λ is not tabulated: since
// λ ≤ q/(1−q), E·(1−q) ≥ n·q means no landing among the n entries left
// without λ, and most rows end there on one draw; otherwise the call
// takes λ's logarithm once and skips through skip. At q = 1, which
// base·maxRC ≥ 1 (a Chi of 1 or more) clamps to, the scale is 0 and
// every skip 0, so each entry is landed on and accepted with
// probability base·RC. Each skip takes one Exp draw; each landing
// draws one coin unless its entry is adopted or its acceptance
// probability is 0 or at least 1 (DESIGN.md §3).
func assocNext(s rng.Stream, row []pin.PairRel, init []pin.RelInit, arow []uint64, j int, base, maxRC float64) (rng.Stream, int) {
	n := len(row)
	// A landing is accepted with probability RC/div = base·RC/q.
	q, div := base*maxRC, maxRC
	if q >= 1 {
		q, div = 1, 1/base
	}
	var (
		ns      rng.Stream
		e       float64
		hit, ok bool
	)
	scale := -1.0 // not taken yet
	for q > 0 && j < n {
		if ns, e, ok = s.ExpFast(); !ok {
			ns, e = s.Exp()
		}
		s = ns
		if scale < 0 {
			if e*(1-q) >= float64(n-j)*q {
				break
			}
			scale = skipScale(q)
		}
		if j += skip(e, scale, n-j); j == n {
			break
		}
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
// update is skipped for single-adoption users (DESIGN.md §3). With
// logSteps set, the step's adopters go to the change log first.
func (st *State) endOfStep() {
	if st.logSteps {
		st.adoptLog = append(st.adoptLog, st.stepUsers...)
	}
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
