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
// cheap to build: its workers borrow simulation states from P's state
// pool (statepool.go, DESIGN.md §5), shared by every estimator of that
// problem, so a fresh Estimator per query on a warm problem builds no
// State. Which pooled state a worker gets never changes a result: every
// sample starts from Reset. All evaluation —
// single (Run) and batched (RunBatch and friends) — builds the
// (group × sample) grid with the one producer in shardable.go, which
// shares common random numbers across the groups of a batch, and folds
// it with ReduceSampleGrid in sample order, so every Estimate is a pure
// function of (Seed, M) regardless of Workers. It is the Monte-Carlo
// implementation of the solver's estimation-backend interface
// (core.Estimator), local or sharded: with Remote set the grid comes
// from a remote producer (internal/shard's worker fleet) instead, and
// is folded the same way.
type Estimator struct {
	P       *Problem
	M       int // samples per estimate
	Seed    uint64
	Workers int // 0 → GOMAXPROCS

	// Grid, when non-nil, memoizes raw per-sample outcome grids per
	// evaluation group (DESIGN.md §10): runBatch and RunBatchSamples
	// serve repeated (seed, sample-range, group) units from the cache
	// instead of re-simulating, bit-identically — the reduction of a
	// cached grid is the same canonical sample-order fold. Attach via
	// gridcache.Cache.View; must not change mid-evaluation.
	Grid GridCache

	// Remote, when non-nil, produces the full sample grid of every
	// non-empty batch in place of the local producer (DESIGN.md §7).
	// RunBatchSamples never consults it, so a remote producer may fall
	// back on it without recursing. Remote rows bypass Grid; must not
	// change mid-evaluation.
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
// (DESIGN.md §3).
func (st *State) LikelihoodPi(market []bool) float64 {
	p := st.p
	if st.piOneMinus == nil {
		n := p.NumUsers()
		st.piOneMinus = make([]float64, st.items)
		st.piSum = make([]float64, st.items)
		st.piMark = make([]uint64, (n+63)/64)
		st.piCount = make([]int32, n)
	}
	// the adopters (every touched user) in ascending id order
	mark, adopters := st.piMark, st.piAdopters[:0]
	for _, u := range st.touched {
		mark[u/64] |= 1 << (uint(u) % 64)
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
				mark[v/64] |= 1 << (uint(v) % 64)
			}
			count[v]++
		}
	}
	live := drainBits(mark, st.piLive[:0])
	off := int32(0)
	for _, v := range live {
		off, count[v] = off+count[v], off
	}
	st.piFrom, st.piW = slices.Grow(st.piFrom, int(off)), slices.Grow(st.piW, int(off))
	from, weight := st.piFrom[:off], st.piW[:off]
	for _, a := range adopters {
		arcs := p.G.Out(int(a))
		for ai, v := range arcs.To {
			if market != nil && !market[v] {
				continue
			}
			from[count[v]], weight[count[v]] = a, arcs.W[ai]
			count[v]++
		}
	}
	// both accumulators are all zero again when a user's loop ends;
	// count[v] is now the end of v's arcs and is zeroed on the way
	oneMinus, sum, touched := st.piOneMinus, st.piSum, st.piTouched
	total := 0.0
	start := int32(0)
	for _, v32 := range live {
		v := int(v32)
		end := count[v]
		count[v] = 0
		touched = touched[:0]
		for ai := start; ai < end; ai++ {
			vp := int(from[ai])
			pact := st.Act(vp, v, weight[ai])
			for _, y := range st.adoptList[vp] {
				if oneMinus[y] == 0 && sum[y] == 0 {
					oneMinus[y] = 1
					touched = append(touched, y)
				}
				oneMinus[y] *= 1 - pact
				sum[y] += pact
			}
		}
		start = end
		for _, y := range touched {
			if !st.Adopted(v, int(y)) {
				var ais float64
				if p.Params.AIS == AISLinearThreshold {
					ais = sum[y]
					if ais > 1 {
						ais = 1
					}
				} else {
					ais = 1 - oneMinus[y]
				}
				total += ais * st.Pref(v, int(y))
			}
			oneMinus[y] = 0
			sum[y] = 0
		}
	}
	st.piTouched = touched[:0]
	st.piAdopters, st.piLive = adopters[:0], live[:0]
	return total
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
