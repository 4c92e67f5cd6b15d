package diffusion

import (
	"context"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"

	"imdpp/internal/rng"
)

// Estimate is the Monte-Carlo estimate of σ and π for a seed group.
// The JSON field names are a stable wire contract (imdppd, -json).
type Estimate struct {
	Sigma       float64   `json:"sigma"`        // importance-aware influence (Def. 1)
	MarketSigma float64   `json:"market_sigma"` // σ restricted to the market mask
	Pi          float64   `json:"pi"`           // future-adoption likelihood (Eq. 13) over the market
	PerItem     []float64 `json:"per_item"`     // mean unweighted adoptions per item
	Adoptions   float64   `json:"adoptions"`    // mean total adoptions
}

// Estimator evaluates σ by Monte-Carlo simulation (footnote 12: σ is
// estimated by simulating the diffusion M times). It is safe for
// sequential reuse; Concurrent evaluation happens internally across
// workers with deterministic per-sample RNG streams. An Estimator is
// cheap to build: its workers borrow simulation states from P's
// substrate (statepool.go, DESIGN.md §5), shared by every estimator of
// every problem over it, so a fresh Estimator per query on a warm
// substrate builds no State. Which pooled state a worker gets never changes a result: every
// sample starts from Reset. All evaluation —
// single (Run) and batched (RunBatch and friends) — draws the
// (group × sample) grid with the one claim loop in shardable.go, which
// shares common random numbers across the groups of a batch, and adds
// each group's samples in sample order, so every Estimate is a pure
// function of (Seed, M) regardless of Workers. With one worker the
// loop folds each sample as it draws it; with several it keeps the
// grid's rows until ReduceSampleGrid folds them. It is the Monte-Carlo
// implementation of the solver's estimation-backend interface
// (core.Estimator), local or sharded: with Remote set the grid comes
// from a remote producer (internal/shard's worker fleet) instead, and
// is folded by ReduceSampleGrid.
type Estimator struct {
	P       *Problem
	M       int // samples per estimate
	Seed    uint64
	Workers int // 0 → GOMAXPROCS

	// Grid, when non-nil, memoizes the folded [0,M) sample grid of
	// every evaluation group (DESIGN.md §10): runBatch looks every
	// group's estimate up first and hands only the misses to the
	// producer, local or Remote, bit-identically. Attach via
	// gridcache.Cache.View; must not change mid-evaluation.
	Grid GridCache

	// Remote, when non-nil, produces the grid of every non-empty batch
	// (or of its cache misses) in place of the local simulation
	// (DESIGN.md §7). RunBatchSamples consults neither, so a remote
	// producer may fall back on it without recursing. Must not change
	// mid-evaluation.
	Remote Sampler

	samples    atomic.Uint64 // campaigns simulated, for throughput stats
	stateBytes atomic.Uint64 // largest footprint of a state put back (StateBytes)
	gridHits   atomic.Uint64 // groups served by Grid instead of simulated
	gridSaved  atomic.Uint64 // campaign simulations those hits avoided

	// done, when non-nil, preempts the batch engine: workers stop
	// claiming (group × sample) units once the channel is closed. Set
	// via Bind; see the cancellation note on that method.
	done <-chan struct{}

	// ctx is the bound context, kept for trace-span extraction
	// (obs.SpanFromContext); like done it never influences results.
	ctx context.Context
}

// NewEstimator creates an estimator with M samples and master seed.
func NewEstimator(p *Problem, m int, seed uint64) *Estimator {
	if m < 1 {
		m = 1
	}
	return &Estimator{P: p, M: m, Seed: seed}
}

// Bind attaches a cancellation context to the estimator. Once ctx is
// cancelled, in-flight and future batch evaluations stop claiming new
// (group × sample) work units and return promptly — within about one
// campaign simulation. Results produced after cancellation are
// partial garbage; callers must check ctx.Err() before trusting an
// Estimate. Binding context.Background() (or never binding) disables
// preemption. Bind must not be called concurrently with evaluation.
func (e *Estimator) Bind(ctx context.Context) {
	e.done = ctx.Done()
	e.ctx = ctx
}

// preempted reports whether a bound context has been cancelled. It is
// a non-blocking channel poll, cheap enough for the per-unit hot path.
func (e *Estimator) preempted() bool {
	if e.done == nil {
		return false
	}
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Reseed changes the master seed for subsequent estimates. Greedy
// selection loops reseed between rounds so the positive bias of the
// round's winning (max-over-candidates) estimate does not persist into
// the next round's baseline — the "winner's curse" stall of greedy
// maximisation with a fixed deterministic Monte-Carlo oracle.
func (e *Estimator) Reseed(seed uint64) { e.Seed = seed }

// workers resolves the configured pool size; the batch engine caps it
// further at the number of (group × sample) work units.
func (e *Estimator) workers() int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sigma returns the Monte-Carlo estimate of σ(S).
func (e *Estimator) Sigma(seeds []Seed) float64 {
	est := e.Run(seeds, nil, false)
	return est.Sigma
}

// Run estimates σ (and π over market when withPi) for the seed group.
// market may be nil, meaning all users. The estimate is deterministic
// for a fixed Estimator seed and M, and independent of Workers and
// GOMAXPROCS (sample i always uses stream Split(i), and samples are
// reduced in index order). Run is the single-group case of the batch
// engine, so it is bit-identical to RunBatch on a one-element batch.
func (e *Estimator) Run(seeds []Seed, market []bool, withPi bool) Estimate {
	return e.runBatch([][]Seed{seeds}, market, nil, withPi)[0]
}

// MeanWeights runs the campaign M times and returns the expected
// meta-graph weighting vector averaged over the given users at the end
// of the campaign — the "expectation of the personal item network"
// step of the paper's Example 2 (Fig. 6(c)), aggregated over a target
// market's users. DRE derives r̄C/r̄S from this vector; relevance is
// linear in the weights (up to clamping), so averaging the weights
// first is equivalent to averaging per-user relevance.
func (e *Estimator) MeanWeights(seeds []Seed, users []int) []float64 {
	master := rng.New(e.Seed ^ 0x5bd1e995)
	st := e.getState()
	defer e.putState(st)
	nm := e.P.PIN.NumMeta()
	acc := make([]float64, nm)
	var res Result
	res.PerItem = make([]float64, e.P.NumItems())
	for i := 0; i < e.M; i++ {
		if e.preempted() {
			break // cancelled: the caller checks ctx before trusting acc
		}
		st.Reset(master.Split(uint64(i)))
		res.Sigma, res.MarketSigma, res.Adoptions, res.Steps = 0, 0, 0, 0
		st.RunCampaign(seeds, nil, &res)
		e.samples.Add(1)
		for _, u := range users {
			w := st.Weights(u)
			for j := 0; j < nm; j++ {
				acc[j] += w[j]
			}
		}
	}
	denom := float64(e.M) * float64(len(users))
	if denom == 0 {
		copy(acc, e.P.PIN.InitWeights)
		return acc
	}
	for j := range acc {
		acc[j] /= denom
	}
	return acc
}

// LikelihoodPi evaluates Eq. 13 on the current (post-campaign) state:
// the total likelihood of the market's users adopting their
// not-yet-adopted items in the next promotion,
//
//	π = Σ_{v∈τ} Σ_{y∉A(v)} AIS(v,y) · Ppref(v,y)
//
// AIS aggregates influence from in-neighbours who have adopted y
// (IC: 1−Π(1−Pact); LT: ΣPact clamped). Only market users with an
// adopting in-neighbour can contribute, so π visits just those: the
// adopters' out-arcs are bucketed per target by a counting sort, and
// both adopters and targets are taken in ascending id order. That
// reproduces, user by user, the adopter entries of the ascending
// in-list and the ascending market walk, so every float operation
// happens in the same order as a walk over all market users' in-arcs
// (DESIGN.md §3). The live users, their arcs and their terms stay in
// st.piFull for resumedPi.
func (st *State) LikelihoodPi(market []bool) float64 {
	p := st.p
	if st.piOneMinus == nil {
		n := p.NumUsers()
		st.piOneMinus = make([]float64, st.items)
		st.piSum = make([]float64, st.items)
		st.piMark = make([]uint64, (n+63)/64)
		st.piDMark = make([]uint64, (n+63)/64)
		st.piCount = make([]int32, n)
	}
	// the adopters (every touched user) in ascending id order
	mark, adopters := st.piMark, st.piAdopters[:0]
	for _, u := range st.touched {
		setBit(mark, u)
	}
	adopters = drainBits(mark, adopters)
	// count each live user's adopting in-neighbours, then turn the
	// counts into start offsets in ascending live-user order
	count := st.piCount
	for _, a := range adopters {
		for _, v := range p.G.Out(int(a)).To {
			if market != nil && !market[v] {
				continue
			}
			if count[v] == 0 {
				setBit(mark, v)
			}
			count[v]++
		}
	}
	w := &st.piFull
	w.users = drainBits(mark, w.users[:0])
	arcs := st.bucketArcs(&w.arcs, adopters, w.users, market)
	// count[v] is now the end of v's arcs and is zeroed on the way
	w.arcEnd, w.termEnd, w.terms = w.arcEnd[:0], w.termEnd[:0], w.terms[:0]
	start := int32(0)
	for _, v := range w.users {
		end := count[v]
		count[v] = 0
		w.terms = st.userPi(int(v), arcs.from[start:end], arcs.w[start:end], w.terms)
		w.arcEnd = append(w.arcEnd, end)
		w.termEnd = append(w.termEnd, int32(len(w.terms)))
		start = end
	}
	st.piAdopters = adopters[:0]
	total := 0.0
	for _, t := range w.terms {
		total += t
	}
	return total
}

// resumedPi is LikelihoodPi on the final state of a family member
// resumed from checkpoint c, when the last LikelihoodPi call on st was
// the root's, on the root's final state of the same sample under the
// same market, and the change log holds the root's run followed by
// the member's (DESIGN.md §3, "Resumed π"). A user's terms read only
// its own row and its adopting in-neighbours' rows, so a user is
// recomputed only when it is in the change set: a changed adopter
// (changedAdopters) in the market, or a market out-neighbour of one.
// Every other live user takes the root's terms. A changed user's arcs
// are the root's bucket without changed sources, merged with the
// changed adopters' own arcs in ascending source order, so its terms
// are the ones LikelihoodPi would compute, and all terms are summed in
// LikelihoodPi's order.
func (st *State) resumedPi(market []bool, c int) float64 {
	p := st.p
	mark, dmark, count := st.piMark, st.piDMark, st.piCount
	changed := st.changedAdopters(c)
	// the change set, and the member's changed adopters' arcs counted
	// per target
	for _, a := range changed {
		setBit(dmark, a)
		if market == nil || market[a] {
			setBit(mark, a)
		}
		adopter := st.dirty[a]
		for _, v := range p.G.Out(int(a)).To {
			if market != nil && !market[v] {
				continue
			}
			setBit(mark, v)
			if adopter {
				count[v]++
			}
		}
	}
	cset := drainBits(mark, st.piChanged[:0])
	darcs := st.bucketArcs(&st.piDArcs, changed, cset, market)

	// merge the root's live users with the change set, both ascending
	root := &st.piFull
	total := 0.0
	i, arc0, term0 := 0, int32(0), int32(0) // root user, its arcs' and terms' start
	start := int32(0)                       // the changed user's arcs in darcs
	for _, v := range cset {
		for ; i < len(root.users) && root.users[i] < v; i++ {
			for _, t := range root.terms[term0:root.termEnd[i]] {
				total += t
			}
			arc0, term0 = root.arcEnd[i], root.termEnd[i]
		}
		end := count[v]
		count[v] = 0
		dfrom, dw := darcs.from[start:end], darcs.w[start:end]
		start = end
		m := st.piMerged.reset()
		if i < len(root.users) && root.users[i] == v {
			for k := arc0; k < root.arcEnd[i]; k++ {
				a := root.arcs.from[k]
				if hasBit(dmark, a) {
					continue
				}
				for len(dfrom) > 0 && dfrom[0] < a {
					m.add(dfrom[0], dw[0])
					dfrom, dw = dfrom[1:], dw[1:]
				}
				m.add(a, root.arcs.w[k])
			}
			arc0, term0 = root.arcEnd[i], root.termEnd[i]
			i++
		}
		for k, a := range dfrom {
			m.add(a, dw[k])
		}
		if len(m.from) > 0 {
			terms := st.userPi(int(v), m.from, m.w, st.piTerms[:0])
			for _, t := range terms {
				total += t
			}
			st.piTerms = terms[:0]
		}
	}
	for _, t := range root.terms[term0:] {
		total += t
	}
	for _, a := range changed {
		clearBit(dmark, a)
	}
	st.piAdopters, st.piChanged = changed[:0], cset[:0]
	return total
}

// changedAdopters returns, in ascending id order, the users that
// adopted after checkpoint c, in the root's run or in the member's,
// and whose rows now differ from the root's final rows.
func (st *State) changedAdopters(c int) []int32 {
	mark := st.piMark
	for _, u := range st.adoptLog[st.ckpts[c].logN:] {
		setBit(mark, u)
	}
	changed := drainBits(mark, st.piAdopters[:0])
	rows := &st.piRootRows
	n, j := 0, 0
	for _, u := range changed {
		for j < len(rows.users) && rows.users[j] < u {
			j++
		}
		if j < len(rows.users) && rows.users[j] == u && st.sameRow(rows, j, u) {
			continue
		}
		changed[n] = u
		n++
	}
	return changed[:n]
}

// keepRootRows keeps, in st.piRootRows, the current rows of the users
// that adopted after the first checkpoint, in ascending id order. The
// batch engine calls it on a family root's final state, so resumedPi
// can tell which of a member's changed adopters ended where the root
// ended.
func (st *State) keepRootRows() {
	mark := st.piMark
	for _, u := range st.adoptLog[st.ckpts[0].logN:] {
		setBit(mark, u)
	}
	users := drainBits(mark, st.piAdopters[:0])
	st.piRootRows.keepRows(st, users)
	st.piAdopters = users[:0]
}

// userPi appends the terms of live user v to terms, each
// AIS(v,y)·Ppref(v,y) for an item y an adopting in-neighbour holds and
// v does not, in the order v's arcs first touch them, and returns
// terms. from and weight are v's adopting in-neighbours' arcs in
// ascending source order. Both π paths take every term from here. Both
// accumulators are all zero again on return. A clean live user holds
// its initial state (DESIGN.md §3): it has adopted nothing, Act would
// return the arc weight and Pref its clamped base preference, so its
// terms take those values directly.
func (st *State) userPi(v int, from []int32, weight []float64, terms []float64) []float64 {
	oneMinus, sum, touched := st.piOneMinus, st.piSum, st.piTouched[:0]
	clean := !st.dirty[v]
	for ai, vp := range from {
		pact := weight[ai]
		if !clean {
			pact = st.Act(int(vp), v, pact)
		}
		for _, y := range st.adoptList[vp] {
			if oneMinus[y] == 0 && sum[y] == 0 {
				oneMinus[y] = 1
				touched = append(touched, y)
			}
			oneMinus[y] *= 1 - pact
			sum[y] += pact
		}
	}
	lt := st.p.Params.AIS == AISLinearThreshold
	if clean {
		base := st.p.BasePref.Row(v)
		for _, y := range touched {
			terms = append(terms, ais(lt, oneMinus[y], sum[y])*clampPref(base[y]))
			oneMinus[y] = 0
			sum[y] = 0
		}
	} else {
		for _, y := range touched {
			if !st.Adopted(v, int(y)) {
				terms = append(terms, ais(lt, oneMinus[y], sum[y])*st.Pref(v, int(y)))
			}
			oneMinus[y] = 0
			sum[y] = 0
		}
	}
	st.piTouched = touched[:0]
	return terms
}

// piArcs are adopters' out-arcs, bucketed per target user in
// ascending target order and, within a target, in ascending source
// order.
type piArcs struct {
	from []int32
	w    []float64
}

// bucketArcs fills dst with the market out-arcs of the users of srcs
// (ascending) that have adopted, by a counting sort into the targets
// (ascending): st.piCount[v] holds the number of target v's arcs on
// entry and the end of its bucket on return.
func (st *State) bucketArcs(dst *piArcs, srcs, targets []int32, market []bool) *piArcs {
	count := st.piCount
	off := int32(0)
	for _, v := range targets {
		off, count[v] = off+count[v], off
	}
	dst.from, dst.w = slices.Grow(dst.from[:0], int(off))[:off], slices.Grow(dst.w[:0], int(off))[:off]
	for _, u := range srcs {
		if !st.dirty[u] {
			continue
		}
		arcs := st.p.G.Out(int(u))
		for ai, v := range arcs.To {
			if market != nil && !market[v] {
				continue
			}
			dst.from[count[v]], dst.w[count[v]] = u, arcs.W[ai]
			count[v]++
		}
	}
	return dst
}

// reset empties a for reuse and returns it.
func (a *piArcs) reset() *piArcs {
	a.from, a.w = a.from[:0], a.w[:0]
	return a
}

func (a *piArcs) add(from int32, w float64) {
	a.from = append(a.from, from)
	a.w = append(a.w, w)
}

func (a *piArcs) bytes() uint64 { return uint64(cap(a.from))*4 + uint64(cap(a.w))*8 }

// piWork is a full π call's per-user work: the live users in
// ascending order, each one's bucketed arcs and the terms it added,
// in the order they were added; user users[k]'s arcs end at
// arcEnd[k] and its terms at termEnd[k].
type piWork struct {
	users   []int32
	arcEnd  []int32
	termEnd []int32
	arcs    piArcs
	terms   []float64
}

func (w *piWork) bytes() uint64 {
	return uint64(cap(w.users)+cap(w.arcEnd)+cap(w.termEnd))*4 + w.arcs.bytes() + uint64(cap(w.terms))*8
}

func setBit(mark []uint64, u int32) { mark[u/64] |= 1 << (uint(u) % 64) }

func clearBit(mark []uint64, u int32) { mark[u/64] &^= 1 << (uint(u) % 64) }

func hasBit(mark []uint64, u int32) bool { return mark[u/64]&(1<<(uint(u)%64)) != 0 }

// ais is AIS(v,y) of Eq. 13 from a user's per-item accumulators:
// ΣPact clamped to 1 under the linear-threshold model (lt), else
// 1 − Π(1−Pact).
func ais(lt bool, oneMinus, sum float64) float64 {
	if lt {
		if sum > 1 {
			return 1
		}
		return sum
	}
	return 1 - oneMinus
}

// drainBits appends the indices of the set bits of mark to dst in
// ascending order and clears mark.
func drainBits(mark []uint64, dst []int32) []int32 {
	for i, word := range mark {
		if word == 0 {
			continue
		}
		mark[i] = 0
		for word != 0 {
			dst = append(dst, int32(i*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}
