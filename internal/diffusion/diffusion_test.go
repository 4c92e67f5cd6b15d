package diffusion

import (
	"math"
	"testing"

	"imdpp/internal/graph"
	"imdpp/internal/kg"
	"imdpp/internal/pin"
	"imdpp/internal/rng"
)

// testProblem assembles a problem from explicit pieces. Items come
// from a tiny KG with a complementary pair (0,1) via a shared feature
// and a substitutable pair (1,2) via a shared category; item 3 is
// unrelated.
func testProblem(t testing.TB, g *graph.Graph, pref func(u, x int) float64, imp []float64, T int, params Params) *Problem {
	t.Helper()
	b := kg.NewBuilder()
	tItem := b.NodeTypeID("ITEM")
	tFeature := b.NodeTypeID("FEATURE")
	tCategory := b.NodeTypeID("CATEGORY")
	eSup := b.EdgeTypeID("SUPPORTS")
	eCat := b.EdgeTypeID("IN_CATEGORY")
	items := make([]int, 4)
	for i := range items {
		items[i] = b.AddNode(tItem)
	}
	f := b.AddNode(tFeature)
	c := b.AddNode(tCategory)
	b.AddEdge(items[0], f, eSup)
	b.AddEdge(items[1], f, eSup)
	b.AddEdge(items[1], c, eCat)
	b.AddEdge(items[2], c, eCat)
	kgraph := b.Build()
	model, err := pin.NewModel(kgraph,
		[]*kg.MetaGraph{kg.PathMetaGraph("c", kg.Complementary, tItem, tFeature, eSup, eSup)},
		[]*kg.MetaGraph{kg.PathMetaGraph("s", kg.Substitutable, tItem, tCategory, eCat, eCat)},
		[]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	ni := kgraph.NumItems()
	if imp == nil {
		imp = []float64{1, 1, 1, 1}
	}
	basePref := make([]float64, n*ni)
	cost := make([]float64, n*ni)
	for u := 0; u < n; u++ {
		for x := 0; x < ni; x++ {
			basePref[u*ni+x] = pref(u, x)
			cost[u*ni+x] = 1
		}
	}
	p := &Problem{
		Substrate: &Substrate{
			G: g, KG: kgraph, PIN: model,
			Importance: imp, BasePref: MatrixFrom(basePref, ni), Cost: MatrixFrom(cost, ni),
		},
		Budget: 1e9, T: T, Params: params,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func lineGraph(n int, w float64) *graph.Graph {
	b := graph.NewBuilder(n, true)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, w)
	}
	return b.Build()
}

func staticParams() Params {
	p := DefaultParams()
	p.Static = true
	p.Chi = 0
	return p
}

func runOnce(t *testing.T, p *Problem, seeds []Seed, seed uint64) Result {
	t.Helper()
	st := NewState(p)
	st.Reset(rng.New(seed))
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	st.RunCampaign(seeds, nil, &res)
	return res
}

// --- deterministic cascades -------------------------------------------

func TestDeterministicLineCascade(t *testing.T) {
	p := testProblem(t, lineGraph(4, 1),
		func(u, x int) float64 {
			if x == 3 {
				return 1
			}
			return 0
		}, nil, 1, staticParams())
	res := runOnce(t, p, []Seed{{User: 0, Item: 3, T: 1}}, 1)
	if res.Adoptions != 4 {
		t.Fatalf("adoptions = %d, want full cascade 4", res.Adoptions)
	}
	if res.Sigma != 4 {
		t.Fatalf("sigma = %v", res.Sigma)
	}
	if res.PerItem[3] != 4 {
		t.Fatalf("per-item: %v", res.PerItem)
	}
}

func TestZeroPreferenceBlocksAdoption(t *testing.T) {
	p := testProblem(t, lineGraph(3, 1),
		func(u, x int) float64 { return 0 }, nil, 1, staticParams())
	res := runOnce(t, p, []Seed{{User: 0, Item: 3, T: 1}}, 1)
	// the seed itself adopts regardless; nobody else does
	if res.Adoptions != 1 {
		t.Fatalf("adoptions = %d", res.Adoptions)
	}
}

func TestImportanceWeighting(t *testing.T) {
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 { return 1 },
		[]float64{0.25, 1, 1, 1}, 1, staticParams())
	res := runOnce(t, p, []Seed{{User: 0, Item: 0, T: 1}}, 1)
	if res.Adoptions != 2 {
		t.Fatalf("adoptions = %d", res.Adoptions)
	}
	if math.Abs(res.Sigma-0.5) > 1e-12 {
		t.Fatalf("sigma = %v, want importance-weighted 0.5", res.Sigma)
	}
}

func TestMarketMaskRestrictsSigma(t *testing.T) {
	p := testProblem(t, lineGraph(3, 1),
		func(u, x int) float64 { return 1 }, nil, 1, staticParams())
	st := NewState(p)
	st.Reset(rng.New(1))
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	market := []bool{false, true, false}
	st.RunCampaign([]Seed{{User: 0, Item: 0, T: 1}}, market, &res)
	if res.Sigma != 3 {
		t.Fatalf("sigma = %v", res.Sigma)
	}
	if res.MarketSigma != 1 {
		t.Fatalf("market sigma = %v", res.MarketSigma)
	}
}

func TestNoDoubleAdoption(t *testing.T) {
	// cycle 0→1→0: item must be adopted at most once per user
	b := graph.NewBuilder(2, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 1)
	p := testProblem(t, b.Build(),
		func(u, x int) float64 { return 1 }, nil, 3, staticParams())
	res := runOnce(t, p, []Seed{{User: 0, Item: 0, T: 1}, {User: 1, Item: 0, T: 2}}, 1)
	if res.PerItem[0] != 2 {
		t.Fatalf("item adopted %v times across 2 users", res.PerItem[0])
	}
}

func TestReSeededUserRePromotes(t *testing.T) {
	// 0→1 with weight 1 but pref(1)=0 at promo 1... instead: seed the
	// same (user,item) in two promotions; second must re-promote.
	// Make 1's adoption fail at promo 1 impossible (prob 1), so use a
	// 0.0-weight? Simpler: seed (0,x,1) twice with an edge weight such
	// that promo-1 trial fails under one RNG stream and promo-2
	// succeeds — deterministically verified via per-promotion frontier
	// re-entry: pref=1, w=1 cascades at promo 1 already. Here we just
	// assert re-seeding does not double-count adoptions.
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 { return 1 }, nil, 2, staticParams())
	res := runOnce(t, p, []Seed{{User: 0, Item: 0, T: 1}, {User: 0, Item: 0, T: 2}}, 1)
	if res.PerItem[0] != 2 {
		t.Fatalf("re-seeding double-counted: %v", res.PerItem[0])
	}
}

func TestReSeedingGivesSecondTrial(t *testing.T) {
	// 0→1 with weight 0.5: a single seeding gives user 1 exactly one
	// trial; re-seeding user 0 at promo 2 gives a second trial. Over
	// many samples the two-promotion adoption rate must exceed the
	// single-promotion rate.
	p := testProblem(t, lineGraph(2, 0.5),
		func(u, x int) float64 { return 1 }, nil, 2, staticParams())
	e1 := NewEstimator(p, 800, 7)
	one := e1.Sigma([]Seed{{User: 0, Item: 0, T: 1}})
	e2 := NewEstimator(p, 800, 7)
	two := e2.Sigma([]Seed{{User: 0, Item: 0, T: 1}, {User: 0, Item: 0, T: 2}})
	// expected: 1 + 0.5 = 1.5 vs 1 + 0.75 = 1.75
	if two <= one+0.1 {
		t.Fatalf("re-seeding added no influence: %v vs %v", one, two)
	}
}

// --- dynamics -----------------------------------------------------------

func TestForceAdoptUpdatesPreference(t *testing.T) {
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 { return 0.2 }, nil, 1, DefaultParams())
	st := NewState(p)
	st.Reset(rng.New(1))
	before := st.Pref(0, 1)
	st.ForceAdopt(0, 0) // item 0 is complementary with item 1
	after := st.Pref(0, 1)
	if after <= before {
		t.Fatalf("complement adoption did not raise preference: %v → %v", before, after)
	}
}

func TestSubstituteAdoptionLowersPreference(t *testing.T) {
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 { return 0.5 }, nil, 1, DefaultParams())
	st := NewState(p)
	st.Reset(rng.New(1))
	before := st.Pref(0, 2) // item 2 substitutable with item 1
	st.ForceAdopt(0, 1)
	after := st.Pref(0, 2)
	if after >= before {
		t.Fatalf("substitute adoption did not lower preference: %v → %v", before, after)
	}
}

func TestStaticFreezesDynamics(t *testing.T) {
	params := DefaultParams()
	params.Static = true
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 { return 0.2 }, nil, 1, params)
	st := NewState(p)
	st.Reset(rng.New(1))
	before := st.Pref(0, 1)
	st.ForceAdopt(0, 0)
	if st.Pref(0, 1) != before {
		t.Fatal("Static params still updated preferences")
	}
	w := st.Weights(0)
	for i, v := range w {
		if v != p.PIN.InitWeights[i] {
			t.Fatal("Static params still updated weightings")
		}
	}
}

func TestInfluenceLearning(t *testing.T) {
	p := testProblem(t, lineGraph(2, 0.4),
		func(u, x int) float64 { return 1 }, nil, 1, DefaultParams())
	st := NewState(p)
	st.Reset(rng.New(1))
	if got := st.Act(0, 1, 0.4); got != 0.4 {
		t.Fatalf("pre-adoption Act = %v", got)
	}
	st.ForceAdopt(0, 0)
	st.ForceAdopt(1, 0)
	got := st.Act(0, 1, 0.4)
	if got <= 0.4 {
		t.Fatalf("common adoption did not raise Act: %v", got)
	}
	if got > 1 {
		t.Fatalf("Act exceeds 1: %v", got)
	}
}

func TestActNoCommonAdoptionUnchanged(t *testing.T) {
	p := testProblem(t, lineGraph(2, 0.4),
		func(u, x int) float64 { return 1 }, nil, 1, DefaultParams())
	st := NewState(p)
	st.Reset(rng.New(1))
	st.ForceAdopt(0, 0)
	st.ForceAdopt(1, 3) // disjoint adoptions
	if got := st.Act(0, 1, 0.4); got != 0.4 {
		t.Fatalf("disjoint adoptions changed Act: %v", got)
	}
}

func TestWeightUpdateDuringCampaign(t *testing.T) {
	// seed both complementary items at one user: co-adoption must grow
	// the complementary meta-graph weighting
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 { return 1 }, nil, 1, DefaultParams())
	st := NewState(p)
	st.Reset(rng.New(1))
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	st.RunCampaign([]Seed{{User: 0, Item: 0, T: 1}, {User: 0, Item: 1, T: 1}}, nil, &res)
	w := st.Weights(0)
	if w[0] <= p.PIN.InitWeights[0] {
		t.Fatalf("complementary weighting did not grow: %v", w)
	}
}

func TestItemAssociationTriggers(t *testing.T) {
	// user 1 will never adopt item 1 directly (pref 0 would zero Pext
	// of item 0's promotion... Pext uses pref of the *promoted* item).
	// Setup: promote item 0 (pref 1) to user 1; association may
	// trigger item 1 without any promotion of item 1.
	params := DefaultParams()
	params.Chi = 1
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 {
			if x == 0 {
				return 1
			}
			return 0
		}, nil, 1, params)
	e := NewEstimator(p, 2000, 11)
	est := e.Run([]Seed{{User: 0, Item: 0, T: 1}}, nil, false)
	if est.PerItem[1] <= 0 {
		t.Fatal("item association never triggered an extra adoption")
	}
	// extra adoptions only for the complementary partner, not the
	// unrelated item 3
	if est.PerItem[3] != 0 {
		t.Fatalf("unrelated item adopted: %v", est.PerItem)
	}
}

func TestNoAssociationWhenChiZero(t *testing.T) {
	params := DefaultParams()
	params.Chi = 0
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 {
			if x == 0 {
				return 1
			}
			return 0
		}, nil, 1, params)
	e := NewEstimator(p, 500, 11)
	est := e.Run([]Seed{{User: 0, Item: 0, T: 1}}, nil, false)
	if est.PerItem[1] != 0 {
		t.Fatalf("association fired with Chi=0: %v", est.PerItem)
	}
}

// --- multi-promotion semantics ------------------------------------------

func TestPromotionCarryOver(t *testing.T) {
	// 0→1→2, pref 1, weight 1. Seed (0,x,2): nothing at promo 1, full
	// cascade at promo 2.
	p := testProblem(t, lineGraph(3, 1),
		func(u, x int) float64 { return 1 }, nil, 2, staticParams())
	res := runOnce(t, p, []Seed{{User: 0, Item: 0, T: 2}}, 1)
	if res.Adoptions != 3 {
		t.Fatalf("adoptions = %d", res.Adoptions)
	}
}

func TestSequentialUnlockCascade(t *testing.T) {
	// The hardness-gadget mechanism (Thm 1): adopting item x1 unlocks
	// the preference for its complement x2 (cross-elasticity), so a
	// second promotion of x2 succeeds where a first would have failed.
	params := DefaultParams()
	// rC(item0,item1) = 0.5·0.5 = 0.25; Lambda 4 lifts the unlocked
	// preference to exactly 1, making the second cascade deterministic
	params.Lambda = 4
	params.Chi = 0
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 {
			if x == 0 {
				return 1
			}
			return 0 // x2 initially undesired
		}, nil, 2, params)
	// promo 1: item 0 cascades; user 1 adopts it and the complementary
	// relation raises Ppref(1, item1) above 0.
	// promo 2: item 1 seeded at user 0; user 1 now adopts it.
	res := runOnce(t, p, []Seed{{User: 0, Item: 0, T: 1}, {User: 0, Item: 1, T: 2}}, 3)
	if res.PerItem[1] < 2 {
		t.Fatalf("unlock cascade failed: item1 adopted %v times (want 2)", res.PerItem[1])
	}
	// and without the first promotion, item 1 never spreads
	res2 := runOnce(t, p, []Seed{{User: 0, Item: 1, T: 2}}, 3)
	if res2.PerItem[1] != 1 {
		t.Fatalf("item1 spread without unlock: %v", res2.PerItem[1])
	}
}

func TestNonMonotoneSigma(t *testing.T) {
	// Lemma 1's non-monotonicity, realised through the substitutable
	// antagonism: seeding (u, x1, 1) makes u adopt the substitute of
	// x2, lowering Ppref(u, x2) before the promotion of x2 at t=2.
	// With w_{x1} = 0, the added seed strictly decreases σ.
	params := DefaultParams()
	params.Chi = 0
	params.Gamma = 0
	imp := []float64{1, 0, 1, 1} // item 1 (the substitute source) worthless
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 {
			if x == 1 {
				return 1
			}
			if x == 2 {
				return 0.6
			}
			return 0
		}, imp, 2, params)
	base := []Seed{{User: 0, Item: 2, T: 2}}
	more := []Seed{{User: 1, Item: 1, T: 1}, {User: 0, Item: 2, T: 2}}
	e1 := NewEstimator(p, 4000, 5)
	e2 := NewEstimator(p, 4000, 5)
	s1 := e1.Sigma(base)
	s2 := e2.Sigma(more)
	if s2 >= s1 {
		t.Fatalf("expected non-monotonicity: σ(base)=%v σ(base+seed)=%v", s1, s2)
	}
}

// --- estimator -----------------------------------------------------------

func TestEstimatorDeterministic(t *testing.T) {
	p := testProblem(t, lineGraph(4, 0.5),
		func(u, x int) float64 { return 0.8 }, nil, 2, DefaultParams())
	seeds := []Seed{{User: 0, Item: 0, T: 1}, {User: 0, Item: 1, T: 2}}
	a := NewEstimator(p, 100, 42).Sigma(seeds)
	bv := NewEstimator(p, 100, 42).Sigma(seeds)
	if a != bv {
		t.Fatalf("estimator not deterministic: %v vs %v", a, bv)
	}
	c := NewEstimator(p, 100, 43).Sigma(seeds)
	if a == c {
		t.Fatalf("different master seeds gave identical estimates (suspicious): %v", a)
	}
}

func TestEstimatorWorkerInvariance(t *testing.T) {
	p := testProblem(t, lineGraph(4, 0.5),
		func(u, x int) float64 { return 0.8 }, nil, 2, DefaultParams())
	seeds := []Seed{{User: 0, Item: 0, T: 1}}
	e1 := NewEstimator(p, 64, 42)
	e1.Workers = 1
	e2 := NewEstimator(p, 64, 42)
	e2.Workers = 4
	if a, b := e1.Sigma(seeds), e2.Sigma(seeds); math.Abs(a-b) > 1e-9 {
		t.Fatalf("worker count changed estimate: %v vs %v", a, b)
	}
}

func TestEstimatorEmptySeeds(t *testing.T) {
	p := testProblem(t, lineGraph(3, 0.5),
		func(u, x int) float64 { return 1 }, nil, 1, DefaultParams())
	if s := NewEstimator(p, 10, 1).Sigma(nil); s != 0 {
		t.Fatalf("σ(∅) = %v", s)
	}
}

func TestEstimatorMeanAdoptions(t *testing.T) {
	// 0→1 weight 0.5, pref 1: E[adoptions] = 1 + 0.5
	p := testProblem(t, lineGraph(2, 0.5),
		func(u, x int) float64 { return 1 }, nil, 1, staticParams())
	e := NewEstimator(p, 4000, 9)
	est := e.Run([]Seed{{User: 0, Item: 0, T: 1}}, nil, false)
	if math.Abs(est.Adoptions-1.5) > 0.05 {
		t.Fatalf("mean adoptions %v, want ~1.5", est.Adoptions)
	}
}

func TestStateResetEquivalence(t *testing.T) {
	p := testProblem(t, lineGraph(4, 0.7),
		func(u, x int) float64 { return 0.9 }, nil, 2, DefaultParams())
	seeds := []Seed{{User: 0, Item: 0, T: 1}, {User: 1, Item: 1, T: 2}}
	// state reused across samples must match fresh states sample by
	// sample
	reused := NewState(p)
	for i := 0; i < 5; i++ {
		fresh := NewState(p)
		fresh.Reset(rng.New(uint64(100 + i)))
		reused.Reset(rng.New(uint64(100 + i)))
		var a, b Result
		a.PerItem = make([]float64, p.NumItems())
		b.PerItem = make([]float64, p.NumItems())
		fresh.RunCampaign(seeds, nil, &a)
		reused.RunCampaign(seeds, nil, &b)
		if a.Sigma != b.Sigma || a.Adoptions != b.Adoptions {
			t.Fatalf("sample %d: reused state diverged (%v/%d vs %v/%d)",
				i, a.Sigma, a.Adoptions, b.Sigma, b.Adoptions)
		}
	}
}

func TestLikelihoodPiIC(t *testing.T) {
	// 0→1 weight 0.5. After promo: user 0 adopted item 0; user 1 has
	// not. π over {1} = AIS(1,item0)·pref = 0.5·0.8 plus nothing else.
	p := testProblem(t, lineGraph(2, 0.5),
		func(u, x int) float64 {
			if x == 0 {
				return 0.8
			}
			return 0
		}, nil, 1, staticParams())
	st := NewState(p)
	st.Reset(rng.New(1))
	st.ForceAdopt(0, 0)
	market := []bool{false, true}
	pi := st.LikelihoodPi(market)
	if math.Abs(pi-0.4) > 1e-12 {
		t.Fatalf("π = %v, want 0.4", pi)
	}
	// whole-network π includes user 0, who has adopted everything it
	// could be promoted (no in-edges anyway)
	pi = st.LikelihoodPi(nil)
	if math.Abs(pi-0.4) > 1e-12 {
		t.Fatalf("π(all) = %v", pi)
	}
}

func TestLikelihoodPiLT(t *testing.T) {
	// two in-neighbours with weight 0.7 each: IC gives 1−0.09 = 0.91,
	// LT clamps 1.4 → 1.0
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 2, 0.7)
	b.AddEdge(1, 2, 0.7)
	params := staticParams()
	params.AIS = AISLinearThreshold
	p := testProblem(t, b.Build(),
		func(u, x int) float64 { return 1 }, nil, 1, params)
	st := NewState(p)
	st.Reset(rng.New(1))
	st.ForceAdopt(0, 0)
	st.ForceAdopt(1, 0)
	market := []bool{false, false, true}
	// π = AIS·pref summed over not-yet-adopted items of user 2; only
	// item 0 has adopters upstream
	pi := st.LikelihoodPi(market)
	if math.Abs(pi-1.0) > 1e-12 {
		t.Fatalf("LT π = %v, want 1.0", pi)
	}
	params.AIS = AISIndependentCascade
	p2 := testProblem(t, b.Build(),
		func(u, x int) float64 { return 1 }, nil, 1, params)
	st2 := NewState(p2)
	st2.Reset(rng.New(1))
	st2.ForceAdopt(0, 0)
	st2.ForceAdopt(1, 0)
	pi2 := st2.LikelihoodPi(market)
	if math.Abs(pi2-0.91) > 1e-12 {
		t.Fatalf("IC π = %v, want 0.91", pi2)
	}
}

func TestMeanWeights(t *testing.T) {
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 { return 1 }, nil, 1, DefaultParams())
	e := NewEstimator(p, 50, 3)
	// seeding both complements at user 0 deterministically grows the
	// complementary weighting
	mw := e.MeanWeights([]Seed{{User: 0, Item: 0, T: 1}, {User: 0, Item: 1, T: 1}}, []int{0})
	if mw[0] <= p.PIN.InitWeights[0] {
		t.Fatalf("mean weight did not grow: %v", mw)
	}
	// empty user set falls back to init weights
	mw = e.MeanWeights(nil, nil)
	for i := range mw {
		if mw[i] != p.PIN.InitWeights[i] {
			t.Fatalf("fallback weights %v", mw)
		}
	}
}

// --- validation -----------------------------------------------------------

func TestValidateSeeds(t *testing.T) {
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 { return 1 }, nil, 2, DefaultParams())
	p.Budget = 2
	cases := []struct {
		name  string
		seeds []Seed
		ok    bool
	}{
		{"valid", []Seed{{User: 0, Item: 0, T: 1}}, true},
		{"bad user", []Seed{{User: 9, Item: 0, T: 1}}, false},
		{"bad item", []Seed{{User: 0, Item: 9, T: 1}}, false},
		{"bad timing low", []Seed{{User: 0, Item: 0, T: 0}}, false},
		{"bad timing high", []Seed{{User: 0, Item: 0, T: 3}}, false},
		{"over budget", []Seed{{User: 0, Item: 0, T: 1}, {User: 1, Item: 0, T: 1}, {User: 0, Item: 1, T: 2}}, false},
	}
	for _, tc := range cases {
		err := p.ValidateSeeds(tc.seeds)
		if tc.ok && err != nil {
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Fatalf("%s: error expected", tc.name)
		}
	}
}

func TestProblemValidate(t *testing.T) {
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 { return 1 }, nil, 1, DefaultParams())
	bad := *p
	bad.T = 0
	if bad.Validate() == nil {
		t.Fatal("T=0 accepted")
	}
	bad = *p
	bad.Substrate = fork(p.Substrate)
	bad.Importance = p.Importance[:1]
	if bad.Validate() == nil {
		t.Fatal("short importance accepted")
	}
	bad = *p
	bad.Budget = -1
	if bad.Validate() == nil {
		t.Fatal("negative budget accepted")
	}
	bad = *p
	bad.Params.MaxSteps = 0
	if bad.Validate() == nil {
		t.Fatal("MaxSteps=0 accepted")
	}
}

func TestSeedCost(t *testing.T) {
	p := testProblem(t, lineGraph(2, 1),
		func(u, x int) float64 { return 1 }, nil, 1, DefaultParams())
	if c := p.SeedCost([]Seed{{User: 0, Item: 0, T: 1}, {User: 1, Item: 2, T: 1}}); c != 2 {
		t.Fatalf("cost = %v", c)
	}
}
