package diffusion_test

import (
	"math"
	"math/rand/v2"

	"imdpp/internal/diffusion"
	"imdpp/internal/pin"
)

// refSim is a naive simulator of the paper's diffusion (Sec. III and
// V-A), written from the model's definitions and independent of the
// engine: dense per-user state, one coin per decision through coin,
// association rows walked entry by entry, and no caches or shortcuts.
// It reads only the problem's data (graph arcs, PIN rows, preferences,
// importance, parameters) and shares no code with the engine, so the
// distribution gate and the exact-σ check can hold the engine to it.
//
// The model, per promotion t = 1..T:
//   - ζ = 0: each seed of promotion t adopts its item, in input order;
//     a seed that already holds the item promotes it again without a
//     new adoption.
//   - each step, every adoption (u′, x) of the previous step promotes x
//     along u′'s out-arcs in order. A friend u who has not adopted x
//     buys it with probability Pact(u′,u)·Ppref(u,x), and, whatever
//     that decision, adopts each related item y it has not adopted
//     with probability χ·Pact·Ppref(u,x)·rC(u,x,y), one coin per row
//     entry in ascending y.
//   - adoption sets change at once; weightings and preferences change
//     at the end of the step (relevance measurement, then preference
//     estimation), for the users who adopted in it.
//   - steps repeat until no adoption happens or MaxSteps is reached.
//
// Static freezes weightings, preferences and Pact at their initial
// values.
type refSim struct {
	p                  *diffusion.Problem
	n, items, nm, numC int
	coin               func(p float64) bool

	adopted [][]bool    // adopted[u][y]
	list    [][]int     // u's adoptions in order
	w       [][]float64 // Wmeta(u, ·)
	dpref   [][]float64 // Δpref(u, ·)
	in      [][]arc     // in-arcs per user, for π

	stepNew  [][]int // u's adoptions in the current step
	stepUser []int   // users with an adoption in the current step

	sigma, marketSigma float64
	adoptions          int
	perItem            []float64
}

type arc struct {
	from int
	w    float64
}

type refEvent struct{ u, x int }

func newRefSim(p *diffusion.Problem) *refSim {
	r := &refSim{p: p, n: p.NumUsers(), items: p.NumItems(), nm: p.PIN.NumMeta(), numC: p.PIN.NumC()}
	r.adopted = make([][]bool, r.n)
	r.list = make([][]int, r.n)
	r.w = make([][]float64, r.n)
	r.dpref = make([][]float64, r.n)
	r.in = make([][]arc, r.n)
	r.stepNew = make([][]int, r.n)
	for u := 0; u < r.n; u++ {
		r.adopted[u] = make([]bool, r.items)
		r.w[u] = make([]float64, r.nm)
		r.dpref[u] = make([]float64, r.items)
		arcs := p.G.Out(u)
		for ai, v := range arcs.To {
			r.in[v] = append(r.in[v], arc{from: u, w: arcs.W[ai]})
		}
	}
	r.perItem = make([]float64, r.items)
	return r
}

// reset returns every user to the initial state.
func (r *refSim) reset() {
	for u := 0; u < r.n; u++ {
		clear(r.adopted[u])
		r.list[u] = r.list[u][:0]
		copy(r.w[u], r.p.PIN.InitWeights)
		clear(r.dpref[u])
		r.stepNew[u] = r.stepNew[u][:0]
	}
	r.stepUser = r.stepUser[:0]
	r.sigma, r.marketSigma, r.adoptions = 0, 0, 0
	clear(r.perItem)
}

// run simulates one realisation of the campaign from the initial
// state.
func (r *refSim) run(seeds []diffusion.Seed, market []bool) {
	r.reset()
	for t := 1; t <= r.p.T; t++ {
		var front []refEvent
		for _, s := range seeds {
			if s.T != t {
				continue
			}
			if !r.adopted[s.User][s.Item] {
				r.adopt(s.User, s.Item, market)
			}
			front = append(front, refEvent{s.User, s.Item})
		}
		r.endStep()
		for step := 1; step <= r.p.Params.MaxSteps && len(front) > 0; step++ {
			var next []refEvent
			for _, ev := range front {
				next = r.promote(ev, market, next)
			}
			r.endStep()
			front = next
		}
	}
}

func (r *refSim) promote(ev refEvent, market []bool, next []refEvent) []refEvent {
	par := r.p.Params
	arcs := r.p.G.Out(ev.u)
	for ai, to := range arcs.To {
		u := int(to)
		if r.adopted[u][ev.x] {
			continue
		}
		pact := r.act(ev.u, u, arcs.W[ai])
		pref := r.pref(u, ev.x)
		if r.coin(pact * pref) {
			r.adopt(u, ev.x, market)
			next = append(next, refEvent{u, ev.x})
		}
		for _, pr := range r.p.PIN.Row(ev.x) {
			y := int(pr.Y)
			if r.adopted[u][y] {
				continue
			}
			rc, _ := r.rel(u, pr)
			if r.coin(par.Chi * pact * pref * rc) {
				r.adopt(u, y, market)
				next = append(next, refEvent{u, y})
			}
		}
	}
	return next
}

func (r *refSim) adopt(u, x int, market []bool) {
	r.adopted[u][x] = true
	r.list[u] = append(r.list[u], x)
	if len(r.stepNew[u]) == 0 {
		r.stepUser = append(r.stepUser, u)
	}
	r.stepNew[u] = append(r.stepNew[u], x)
	w := r.p.Importance[x]
	r.sigma += w
	if market == nil || market[u] {
		r.marketSigma += w
	}
	r.perItem[x]++
	r.adoptions++
}

// endStep applies the end-of-step updates to every user who adopted
// in the step: Wmeta(u,m) ← min(1, Wmeta(u,m) + η·Σ_{a new}
// Σ_{b∈A(u), b≠a} s(a,b|m)), then Δpref(u,y) = λ·Σ_{a∈A(u)}
// (rC(u,a,y) − rS(u,a,y)) under the new weights.
func (r *refSim) endStep() {
	par := r.p.Params
	for _, u := range r.stepUser {
		if !par.Static {
			for m := 0; m < r.nm; m++ {
				sup := 0.0
				for _, a := range r.stepNew[u] {
					for _, pr := range r.p.PIN.Row(a) {
						if int(pr.Y) == a || !r.adopted[u][pr.Y] {
							continue
						}
						for _, c := range pr.Contribs {
							if int(c.Meta) == m {
								sup += c.S
							}
						}
					}
				}
				if sup != 0 {
					r.w[u][m] = math.Min(1, r.w[u][m]+par.Eta*sup)
				}
			}
			clear(r.dpref[u])
			for _, a := range r.list[u] {
				for _, pr := range r.p.PIN.Row(a) {
					rc, rs := r.rel(u, pr)
					r.dpref[u][pr.Y] += par.Lambda * (rc - rs)
				}
			}
		}
		r.stepNew[u] = r.stepNew[u][:0]
	}
	r.stepUser = r.stepUser[:0]
}

// rel is (rC, rS) of one row entry under u's weights: the weighted
// complementary and substitutable meta-graph sums, each clamped to
// [0, 1].
func (r *refSim) rel(u int, pr pin.PairRel) (rc, rs float64) {
	for _, c := range pr.Contribs {
		if int(c.Meta) < r.numC {
			rc += r.w[u][c.Meta] * c.S
		} else {
			rs += r.w[u][c.Meta] * c.S
		}
	}
	return clamp01(rc), clamp01(rs)
}

func (r *refSim) pref(u, y int) float64 {
	return clamp01(r.p.BasePref.At(u, y) + r.dpref[u][y])
}

// act is Pact(u,v) = min(1, P0act·(1 + γ·sim(u,v))) with sim the mean
// of the adoption sets' Jaccard index and the weightings' cosine when
// the sets intersect, else 0.
func (r *refSim) act(u, v int, w0 float64) float64 {
	par := r.p.Params
	if par.Static {
		return w0
	}
	inter, union := 0, 0
	for y := 0; y < r.items; y++ {
		a, b := r.adopted[u][y], r.adopted[v][y]
		if a && b {
			inter++
		}
		if a || b {
			union++
		}
	}
	if inter == 0 {
		return w0
	}
	var dot, nu, nv float64
	for m := 0; m < r.nm; m++ {
		dot += r.w[u][m] * r.w[v][m]
		nu += r.w[u][m] * r.w[u][m]
		nv += r.w[v][m] * r.w[v][m]
	}
	cos := 0.0
	if nu > 0 && nv > 0 {
		cos = dot / math.Sqrt(nu*nv)
	}
	sim := 0.5*float64(inter)/float64(union) + 0.5*cos
	return math.Min(1, w0*(1+par.Gamma*sim))
}

// pi is Eq. 13 on the current state: Σ over market users v and items
// y ∉ A(v) of AIS(v,y)·Ppref(v,y), where AIS aggregates Pact over the
// in-arcs from users who adopted y (IC: 1−Π(1−Pact), LT: min(1, ΣPact)).
func (r *refSim) pi(market []bool) float64 {
	total := 0.0
	oneMinus := make([]float64, r.items)
	sum := make([]float64, r.items)
	seen := make([]bool, r.items)
	for v := 0; v < r.n; v++ {
		if market != nil && !market[v] {
			continue
		}
		for y := range oneMinus {
			oneMinus[y], sum[y], seen[y] = 1, 0, false
		}
		for _, a := range r.in[v] {
			if len(r.list[a.from]) == 0 {
				continue
			}
			pact := r.act(a.from, v, a.w)
			for _, y := range r.list[a.from] {
				oneMinus[y] *= 1 - pact
				sum[y] += pact
				seen[y] = true
			}
		}
		for y := 0; y < r.items; y++ {
			if !seen[y] || r.adopted[v][y] {
				continue
			}
			ais := 1 - oneMinus[y]
			if r.p.Params.AIS == diffusion.AISLinearThreshold {
				ais = math.Min(1, sum[y])
			}
			total += ais * r.pref(v, y)
		}
	}
	return total
}

// outcome packs the finished realisation as the engine's per-sample
// record, with π when withPi.
func (r *refSim) outcome(market []bool, withPi bool) diffusion.SampleResult {
	out := diffusion.SampleResult{Sigma: r.sigma, MarketSigma: r.marketSigma, Adoptions: float64(r.adoptions)}
	if withPi {
		out.Pi = r.pi(market)
	}
	for y, c := range r.perItem {
		if c != 0 {
			out.Items = append(out.Items, int32(y))
			out.Counts = append(out.Counts, c)
		}
	}
	return out
}

func clamp01(v float64) float64 { return math.Max(0, math.Min(1, v)) }

// referenceEngine draws m samples of every group from the reference
// simulator. Sample i of every group flips its coins from a PCG
// stream seeded by (seed, i), not from the engine's generator.
func referenceEngine(p *diffusion.Problem, groups [][]diffusion.Seed, market []bool, withPi bool, seed uint64, m int) [][]diffusion.SampleResult {
	r := newRefSim(p)
	var src *rand.Rand
	r.coin = func(q float64) bool {
		if q <= 0 || q >= 1 {
			return q >= 1
		}
		return src.Float64() < q
	}
	out := make([][]diffusion.SampleResult, len(groups))
	for g, seeds := range groups {
		out[g] = make([]diffusion.SampleResult, m)
		for i := 0; i < m; i++ {
			src = rand.New(rand.NewPCG(seed, uint64(i)))
			r.run(seeds, market)
			out[g][i] = r.outcome(market, withPi)
		}
	}
	return out
}

// exactSigma enumerates every coin outcome of the reference campaign
// and returns E[σ] and E[σ²] exactly (up to float rounding), the
// number of realisations and their total probability (1 up to
// rounding). Coins with p ≤ 0 or p ≥ 1 are decided, not branched. It
// replays the campaign once per realisation, walking the binary tree
// of coin outcomes depth-first: after each run the last coin that
// came up false is flipped to true and everything after it is
// dropped.
func exactSigma(p *diffusion.Problem, seeds []diffusion.Seed) (mean, second float64, leaves int, mass float64) {
	r := newRefSim(p)
	var path []bool // outcomes of the branching coins, in draw order
	var k int
	var prob float64
	r.coin = func(q float64) bool {
		if q <= 0 || q >= 1 {
			return q >= 1
		}
		if k == len(path) {
			path = append(path, false)
		}
		hit := path[k]
		k++
		if hit {
			prob *= q
		} else {
			prob *= 1 - q
		}
		return hit
	}
	for {
		k, prob = 0, 1
		r.run(seeds, nil)
		path = path[:k]
		mean += prob * r.sigma
		second += prob * r.sigma * r.sigma
		mass += prob
		leaves++
		i := len(path) - 1
		for i >= 0 && path[i] {
			i--
		}
		if i < 0 {
			return mean, second, leaves, mass
		}
		path = path[:i+1]
		path[i] = true
	}
}
