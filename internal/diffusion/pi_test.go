package diffusion

import (
	"fmt"
	"math"
	"slices"
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

// resumedFamily returns a random scheduling batch on p: group 0 a
// schedule with one to three seeds in every promotion, then groups
// sharing each depth 1..T−1 of its promotions (one adds a seed at the
// next promotion, one redraws every later promotion) and an exact
// duplicate, so the family has a cut at every depth.
func resumedFamily(r *rng.Rand, p *Problem) [][]Seed {
	seed := func(t int) Seed { return Seed{User: r.Intn(p.NumUsers()), Item: r.Intn(p.NumItems()), T: t} }
	var root []Seed
	for t := 1; t <= p.T; t++ {
		for n := 1 + r.Intn(3); n > 0; n-- {
			root = append(root, seed(t))
		}
	}
	groups := [][]Seed{root}
	for d := 1; d < p.T; d++ {
		groups = append(groups, WithSeed(root, seed(d+1)))
		var redrawn []Seed
		for _, s := range root {
			if s.T <= d {
				redrawn = append(redrawn, s)
			}
		}
		for t := d + 1; t <= p.T; t++ {
			redrawn = append(redrawn, seed(t))
		}
		groups = append(groups, redrawn)
	}
	return append(groups, CloneSeeds(root))
}

// TestResumedPiMatchesFull is the property test of resumed π (DESIGN.md
// §3): on random scheduling batches, every family member's π equals a
// full LikelihoodPi on that member's own final state, bit for bit —
// under both AIS models, dynamic and Static, with no market mask and a
// partial one, at every cut depth. It checks each member directly
// inside the family kernel, and through the batch engine at 1 and 2
// workers, sample by sample, against the group's campaign replayed
// alone on a fresh state.
func TestResumedPiMatchesFull(t *testing.T) {
	const m, seed = 6, 0x9E5
	for _, tc := range []struct {
		name   string
		p      *Problem
		static bool
	}{
		{"prefix", prefixProblem(t, false), false},
		{"prefix static", prefixProblem(t, true), true},
		{"directed", directedProblem(t), false},
		{"clamped", clampedProblem(t), false},
	} {
		p := tc.p
		p.Params.Static = tc.static
		r := rng.New(0x5E7)
		partial := make([]bool, p.NumUsers())
		for u := range partial {
			partial[u] = r.Bernoulli(0.6)
		}
		resumed, nonzero := 0, 0
		for trial := 0; trial < 5; trial++ {
			groups := resumedFamily(r, p)
			for mi, mask := range [][]bool{nil, partial} {
				maskOf := func(int) []bool { return mask }
				fams := planFamilies(groups, maskOf, p.T)
				f := &fams[0]
				if len(f.cuts) != p.T-1 {
					t.Fatalf("%s: cuts %v, want one at every depth 1..%d", tc.name, f.cuts, p.T-1)
				}
				for _, aisModel := range []AISModel{AISIndependentCascade, AISLinearThreshold} {
					p.Params.AIS = aisModel
					what := fmt.Sprintf("%s trial %d mask %d ais %d", tc.name, trial, mi, aisModel)

					// directly: each member's π against a full call on its
					// final state, the root's cached work set aside meanwhile
					e := NewEstimator(p, m, seed)
					st := NewState(p)
					master := rng.New(seed)
					var res Result
					res.PerItem = make([]float64, p.NumItems())
					for i := 0; i < m; i++ {
						e.runFamily(st, &res, f, groups, maskOf, true, i, master, func(j, g int, _ *Result, pi float64) {
							if j == 0 {
								return
							}
							root := st.piFull
							st.piFull = piWork{}
							full := st.LikelihoodPi(mask)
							st.piFull = root
							if math.Float64bits(pi) != math.Float64bits(full) {
								t.Fatalf("%s sample %d group %d: resumed π %v (bits %#016x), full %v (bits %#016x)",
									what, i, g, pi, math.Float64bits(pi), full, math.Float64bits(full))
							}
							resumed++
							if pi != 0 {
								nonzero++
							}
						})
					}

					// through the engine, against each group replayed alone
					want := make([][]float64, len(groups))
					ref := NewState(p)
					for g, seeds := range groups {
						for i := 0; i < m; i++ {
							ref.resetSplit(master, i)
							res.Sigma, res.MarketSigma, res.Adoptions, res.Steps = 0, 0, 0, 0
							ref.RunCampaign(seeds, mask, &res)
							want[g] = append(want[g], ref.LikelihoodPi(mask))
						}
					}
					for _, w := range []int{1, 2} {
						e.Workers = w
						for g, rows := range e.RunBatchSamples(groups, mask, nil, true, 0, m) {
							for i, row := range rows {
								if math.Float64bits(row.Pi) != math.Float64bits(want[g][i]) {
									t.Fatalf("%s workers %d sample %d group %d: π %v, alone %v", what, w, i, g, row.Pi, want[g][i])
								}
							}
						}
					}
				}
			}
		}
		if nonzero < resumed/2 {
			t.Fatalf("%s: %d of %d member π values nonzero; the comparison saw too few adopters", tc.name, nonzero, resumed)
		}
	}
}

// TestResumedPiAllocFree: a scheduling sample whose resumed members
// take resumedPi allocates nothing once the state is warm, and
// MemoryFootprint counts the root's cached π work, the change log and
// resumedPi's scratch: setting any of them aside shrinks the footprint
// by at least the bytes it holds.
func TestResumedPiAllocFree(t *testing.T) {
	p := prefixProblem(t, false)
	groups, _ := prefixGroups()
	market := make([]bool, p.NumUsers())
	for u := range market {
		market[u] = u%4 != 0
	}
	e := NewEstimator(p, 8, 3)
	st := NewState(p)
	master := rng.New(e.Seed)
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	var sink float64
	emit := func(_, _ int, res *Result, pi float64) { sink += pi }
	for _, mask := range [][]bool{nil, market} {
		maskOf := func(int) []bool { return mask }
		fams := planFamilies(groups, maskOf, p.T)
		i := 0
		run := func() {
			e.runFamily(st, &res, &fams[0], groups, maskOf, true, i%e.M, master, emit)
			i++
		}
		for j := 0; j < 2*e.M; j++ {
			run()
		}
		if a := testing.AllocsPerRun(20, run); a != 0 {
			t.Fatalf("%v allocations per family sample with resumed π, want 0", a)
		}
	}
	if sink == 0 {
		t.Fatal("every π was zero: the campaigns adopted nothing")
	}
	full := st.MemoryFootprint()
	for _, c := range []struct {
		name  string
		bytes uint64
		drop  func() func()
	}{
		{"root π work", st.piFull.bytes(), func() func() {
			w := st.piFull
			st.piFull = piWork{}
			return func() { st.piFull = w }
		}},
		{"change log", 4 * uint64(cap(st.adoptLog)), func() func() {
			l := st.adoptLog
			st.adoptLog = nil
			return func() { st.adoptLog = l }
		}},
		{"changed adopters' arcs", st.piDArcs.bytes(), func() func() {
			a := st.piDArcs
			st.piDArcs = piArcs{}
			return func() { st.piDArcs = a }
		}},
		{"merged arcs and terms", st.piMerged.bytes() + 8*uint64(cap(st.piTerms)), func() func() {
			a, terms := st.piMerged, st.piTerms
			st.piMerged, st.piTerms = piArcs{}, nil
			return func() { st.piMerged, st.piTerms = a, terms }
		}},
		{"change set", 4*uint64(cap(st.piChanged)) + 8*uint64(cap(st.piDMark)), func() func() {
			c, d := st.piChanged, st.piDMark
			st.piChanged, st.piDMark = nil, nil
			return func() { st.piChanged, st.piDMark = c, d }
		}},
	} {
		if c.bytes == 0 {
			t.Fatalf("%s holds nothing after resumed samples", c.name)
		}
		undo := c.drop()
		shrunk := full - st.MemoryFootprint()
		undo()
		if shrunk < c.bytes {
			t.Fatalf("MemoryFootprint counts %d bytes of the %s, want ≥ %d", shrunk, c.name, c.bytes)
		}
	}
}

// TestSameRowSeesWholeRow: resumedPi drops a changed adopter only when
// its row equals the root's bit for bit, so sameRow must tell apart
// rows with equal adoption lists that differ in weightings (the same
// items adopted over other steps) or in Δpref coverage (a step not yet
// ended).
func TestSameRowSeesWholeRow(t *testing.T) {
	p := prefixProblem(t, false)
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	adoptSteps := func(end bool, steps ...[]int) *State {
		st := NewState(p)
		st.Reset(rng.New(1))
		for _, items := range steps {
			clearStep(st)
			for _, x := range items {
				st.adopt(0, x, 1, 1, TriggerPromotion, nil, &res)
			}
			if end {
				st.endOfStep()
			}
		}
		return st
	}
	var kept checkpoint
	for _, c := range []struct {
		name     string
		root, mb *State
	}{
		{"weightings", adoptSteps(true, []int{0}, []int{1}, []int{2}), adoptSteps(true, []int{0, 1, 2})},
		{"Δpref coverage", adoptSteps(true, []int{0}), adoptSteps(false, []int{0})},
	} {
		if !slices.Equal(c.root.adoptList[0], c.mb.adoptList[0]) {
			t.Fatalf("%s: adoption lists %v and %v differ", c.name, c.root.adoptList[0], c.mb.adoptList[0])
		}
		kept.keepRows(c.root, []int32{0})
		if !c.root.sameRow(&kept, 0, 0) {
			t.Fatalf("%s: a row differs from its own copy", c.name)
		}
		if c.mb.sameRow(&kept, 0, 0) {
			t.Fatalf("%s: rows %v/%v/%d and %v/%v/%d compare equal", c.name,
				c.root.adoptList[0], c.root.Weights(0), c.root.prefN[0], c.mb.adoptList[0], c.mb.Weights(0), c.mb.prefN[0])
		}
	}
}
