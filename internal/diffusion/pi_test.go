package diffusion

import (
	"fmt"
	"math"
	"testing"

	"imdpp/internal/graph"
	"imdpp/internal/rng"
)

// marketWalkPi is the reference π of Eq. 13: every market user in
// ascending id order, each in-arc in the graph's ascending source
// order. LikelihoodPi visits only the users with an adopting
// in-neighbour and must agree with this walk bit for bit.
func marketWalkPi(st *State, market []bool) float64 {
	p := st.p
	oneMinus := make([]float64, st.items)
	sum := make([]float64, st.items)
	var touched []int32
	total := 0.0
	for v := 0; v < p.NumUsers(); v++ {
		if market != nil && !market[v] {
			continue
		}
		touched = touched[:0]
		arcs := p.G.In(v)
		for ai, from := range arcs.To {
			vp := int(from)
			lst := st.adoptList[vp]
			if len(lst) == 0 {
				continue
			}
			pact := st.Act(vp, v, arcs.W[ai])
			for _, y := range lst {
				if oneMinus[y] == 0 && sum[y] == 0 {
					oneMinus[y] = 1
					touched = append(touched, y)
				}
				oneMinus[y] *= 1 - pact
				sum[y] += pact
			}
		}
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
	return total
}

// directedProblem is goldenProblem's dynamic setting on a directed
// random graph, where in- and out-lists differ.
func directedProblem(t testing.TB) *Problem {
	t.Helper()
	g := graph.ErdosRenyi(80, 0.06, true, graph.WeightModel{Mean: 0.35, Jitter: 0.4}, rng.New(0xD1))
	return testProblem(t, g, func(u, x int) float64 {
		return 0.2 + 0.06*float64((u*5+x*11)%10)
	}, []float64{1, 0.5, 2, 1.25}, 4, DefaultParams())
}

// clampedProblem is goldenProblem's graph and setting with base
// preferences outside [0,1]: −0, negative values and values above 1,
// mixed with ordinary ones, so every clamp branch of a preference read
// is taken on clean and dirty users alike.
func clampedProblem(t testing.TB) *Problem {
	t.Helper()
	g := graph.BarabasiAlbert(60, 3, false, graph.WeightModel{Mean: 0.35, Jitter: 0.4}, rng.New(0x60D))
	return testProblem(t, g, func(u, x int) float64 {
		switch k := (u*7 + x*13) % 10; k {
		case 0:
			return math.Copysign(0, -1)
		case 1, 2:
			return -0.1 * float64(k)
		case 3, 4:
			return 1 + 0.2*float64(k)
		default:
			return 0.15 + 0.07*float64(k)
		}
	}, []float64{1, 0.5, 2, 1.25}, 3, DefaultParams())
}

// adoptRec is one adoption as the OnAdopt hook reports it.
type adoptRec struct{ user, item, promo, step int }

// campaignStates drives a state through random campaigns on p and
// calls check on every state reached: after each campaign run from a
// fresh stream, after each restore to one of its promotion-boundary
// checkpoints (deepest first), and after the restored state has run a
// campaign extended by one seed to the end. log holds the adoptions
// that made the checked state, in adoption order. onAdopt, when
// non-nil, is called from the OnAdopt hook after each adoption, mid
// step, with the log that ends in it.
func campaignStates(t *testing.T, p *Problem, campaigns int, check func(what string, st *State, log []adoptRec), onAdopt func(st *State, log []adoptRec)) {
	t.Helper()
	r := rng.New(0xC0FFEE)
	st := NewState(p)
	var log []adoptRec
	st.OnAdopt = func(u, x, promo, step int, _ AdoptTrigger) {
		log = append(log, adoptRec{u, x, promo, step})
		if onAdopt != nil {
			onAdopt(st, log)
		}
	}
	randSeed := func(promo int) Seed {
		return Seed{User: r.Intn(p.NumUsers()), Item: r.Intn(p.NumItems()), T: promo}
	}
	var cuts []int
	for t := 1; t < p.T; t++ {
		cuts = append(cuts, t)
	}
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	for i := 0; i < campaigns; i++ {
		seeds := make([]Seed, 1+r.Intn(3*p.T))
		for j := range seeds {
			seeds[j] = randSeed(1 + r.Intn(p.T))
		}
		st.Reset(rng.New(uint64(i)))
		log = log[:0]
		res.Sigma, res.MarketSigma, res.Adoptions, res.Steps = 0, 0, 0, 0
		st.runFrom(seeds, 0, nil, &res, cuts)
		check(fmt.Sprintf("campaign %d", i), st, log)
		for c := len(cuts) - 1; c >= 0; c-- {
			st.restore(c, &res)
			n := 0
			for n < len(log) && log[n].promo <= cuts[c] {
				n++
			}
			log = log[:n]
			check(fmt.Sprintf("campaign %d restored to promotion %d", i, cuts[c]), st, log)
			st.runFrom(WithSeed(seeds, randSeed(cuts[c]+1)), cuts[c], nil, &res, nil)
			check(fmt.Sprintf("campaign %d resumed from promotion %d", i, cuts[c]), st, log)
		}
	}
}

// TestLikelihoodPiMatchesMarketWalk compares LikelihoodPi with the
// reference walk over all market users, bit for bit, on states reached
// by campaigns and by checkpoint restores. The walk reads every term
// through Act and Pref, so it also checks the values LikelihoodPi takes
// for clean users without calling them, in the dynamic and the Static
// regime and on base preferences that need clamping.
func TestLikelihoodPiMatchesMarketWalk(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      *Problem
		static bool
	}{
		{"golden", goldenProblem(t), false},
		{"golden static", goldenProblem(t), true},
		{"directed", directedProblem(t), false},
		{"clamped", clampedProblem(t), false},
		{"clamped static", clampedProblem(t), true},
	} {
		p := tc.p
		p.Params.Static = tc.static
		r := rng.New(0xAB)
		masks := [][]bool{nil}
		for k := 0; k < 2; k++ {
			m := make([]bool, p.NumUsers())
			for u := range m {
				m[u] = r.Bernoulli(0.6)
			}
			masks = append(masks, m)
		}
		checked := 0
		campaignStates(t, p, 12, func(what string, st *State, _ []adoptRec) {
			for mi, mask := range masks {
				for _, ais := range []AISModel{AISIndependentCascade, AISLinearThreshold} {
					p.Params.AIS = ais
					got, want := st.LikelihoodPi(mask), marketWalkPi(st, mask)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s, %s, mask %d, ais %d: π = %v (bits %#016x), market walk %v (bits %#016x)",
							tc.name, what, mi, ais, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					if want != 0 {
						checked++
					}
				}
			}
		}, nil)
		if checked == 0 {
			t.Fatalf("%s: every π was zero; the comparison saw no adopters", tc.name)
		}
	}
}

// TestLikelihoodPiAllocFree: once its scratch exists, π allocates
// nothing, and MemoryFootprint counts that scratch.
func TestLikelihoodPiAllocFree(t *testing.T) {
	p := benchProblem(t, 2000, 256)
	st := NewState(p)
	st.Reset(rng.New(3))
	var res Result
	seeds := []Seed{{User: 0, Item: 0, T: 1}, {User: 1, Item: 2, T: 1}, {User: 5, Item: 1, T: 2}, {User: 9, Item: 3, T: 3}}
	st.RunCampaign(seeds, nil, &res)
	before := st.MemoryFootprint()
	st.LikelihoodPi(nil)
	if grown, want := st.MemoryFootprint()-before, uint64(4*p.NumUsers()); grown < want {
		t.Fatalf("MemoryFootprint grew by %d bytes on the first π call, want ≥ %d for the per-user counters", grown, want)
	}
	market := make([]bool, p.NumUsers())
	for u := range market {
		market[u] = u%4 != 0
	}
	var sink float64
	for _, m := range [][]bool{nil, market} {
		if a := testing.AllocsPerRun(20, func() { sink += st.LikelihoodPi(m) }); a != 0 {
			t.Fatalf("%v allocations per π call, want 0", a)
		}
	}
	if sink == 0 {
		t.Fatal("π was zero: the campaign adopted nothing")
	}
}
