package diffusion

import (
	"testing"

	"imdpp/internal/graph"
	"imdpp/internal/kg"
	"imdpp/internal/pin"
	"imdpp/internal/rng"
)

// TestHardnessGadgetCascade exercises the mechanics of the Theorem 1
// reduction from Set Cover: set nodes cover element nodes; an element
// adopts item x1 only when a chosen set node promotes it; adopting x1
// unlocks the preference for x2 (the complementary "next" item), which
// a later promotion then spreads. Seeding a cover makes every element
// progress to x2; seeding a non-cover strands the uncovered element.
func TestHardnessGadgetCascade(t *testing.T) {
	// Set Cover instance: U = {e1,e2,e3}, S1={e1,e2}, S2={e2,e3},
	// S3={e3}. {S1,S2} is a cover; {S1,S3} is not (e2 uncovered — no:
	// S1 covers e2; use {S2,S3}, which misses e1).
	const (
		vS1 = 0
		vS2 = 1
		vS3 = 2
		vE1 = 3
		vE2 = 4
		vE3 = 5
		vB  = 6 // the vb node promoting x2 to everyone
	)
	gb := graph.NewBuilder(7, true)
	gb.AddEdge(vS1, vE1, 1)
	gb.AddEdge(vS1, vE2, 1)
	gb.AddEdge(vS2, vE2, 1)
	gb.AddEdge(vS2, vE3, 1)
	gb.AddEdge(vS3, vE3, 1)
	gb.AddEdge(vB, vE1, 1)
	gb.AddEdge(vB, vE2, 1)
	gb.AddEdge(vB, vE3, 1)
	g := gb.Build()

	// KG: x1 PAIRS_WITH x2 (complementary chain)
	b := kg.NewBuilder()
	tItem := b.NodeTypeID("ITEM")
	ePairs := b.EdgeTypeID("PAIRS_WITH")
	x1 := b.AddNode(tItem)
	x2 := b.AddNode(tItem)
	b.AddEdge(x1, x2, ePairs)
	kgraph := b.Build()
	model, err := pin.NewModel(kgraph,
		[]*kg.MetaGraph{kg.DirectMetaGraph("chain", kg.Complementary, tItem, ePairs)},
		nil, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	i1, i2 := kgraph.ItemID(x1), kgraph.ItemID(x2)

	params := DefaultParams()
	params.Chi = 0
	params.Gamma = 0
	// rC(x1,x2) = 0.5 (weight) · 0.5 (saturated count) = 0.25; λ = 4
	// lifts the unlocked preference to exactly 1.
	params.Lambda = 4

	n, ni := g.N(), kgraph.NumItems()
	basePref := make([]float64, n*ni)
	cost := make([]float64, n*ni)
	for u := 0; u < n; u++ {
		for x := 0; x < ni; x++ {
			cost[u*ni+x] = 1
		}
	}
	// elements initially want x1 only; x2 is locked until x1 adopted
	for _, e := range []int{vE1, vE2, vE3} {
		basePref[e*ni+i1] = 1
	}
	p := &Problem{
		Substrate: &Substrate{
			G: g, KG: kgraph, PIN: model,
			Importance: []float64{0, 1}, // only x2 adoptions count (w_{x1}=0)
			BasePref:   MatrixFrom(basePref, ni), Cost: MatrixFrom(cost, ni),
		},
		Budget: 100, T: 2, Params: params,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	run := func(seeds []Seed) Result {
		st := NewState(p)
		st.Reset(rng.New(1))
		var res Result
		res.PerItem = make([]float64, ni)
		st.RunCampaign(seeds, nil, &res)
		return res
	}

	// Cover {S1, S2}: promo 1 spreads x1 to all elements; promo 2 has
	// vb promote x2, now unlocked everywhere → 3 element adoptions of
	// x2 (+ vb's own, importance-weighted: w_{x2}=1 each).
	cover := []Seed{
		{User: vS1, Item: i1, T: 1},
		{User: vS2, Item: i1, T: 1},
		{User: vB, Item: i2, T: 2},
	}
	res := run(cover)
	if got := res.PerItem[i2]; got != 4 { // vb + e1 + e2 + e3
		t.Fatalf("cover: x2 adopted by %v users, want 4", got)
	}
	if res.Sigma != 4 {
		t.Fatalf("cover σ = %v", res.Sigma)
	}

	// Non-cover {S2, S3}: e1 never gets x1, so its x2 stays locked.
	nonCover := []Seed{
		{User: vS2, Item: i1, T: 1},
		{User: vS3, Item: i1, T: 1},
		{User: vB, Item: i2, T: 2},
	}
	res = run(nonCover)
	if got := res.PerItem[i2]; got != 3 { // vb + e2 + e3 only
		t.Fatalf("non-cover: x2 adopted by %v users, want 3", got)
	}

	// Ordering matters (challenge (i)): promoting x2 before x1 wastes
	// the promotion entirely for the elements.
	reversed := []Seed{
		{User: vB, Item: i2, T: 1},
		{User: vS1, Item: i1, T: 2},
		{User: vS2, Item: i1, T: 2},
	}
	res = run(reversed)
	if got := res.PerItem[i2]; got != 1 { // only vb itself
		t.Fatalf("reversed order: x2 adopted by %v users, want 1", got)
	}
}
