package core

import (
	"context"
	"math"
	"testing"

	"imdpp/internal/diffusion"
	"imdpp/internal/graph"
	"imdpp/internal/kg"
	"imdpp/internal/pin"
)

// drProblem builds a two-item world where the DR recursion can be
// hand-computed: items A and B share one feature (s = 1/2) under a
// single complementary meta-graph with initial weighting 0.5, so the
// per-level edge term is g = LC·r̄C − LS·r̄S = r̄C − r̄S = 0.25.
func drProblem(t *testing.T, wA, wB float64) *diffusion.Problem {
	t.Helper()
	b := kg.NewBuilder()
	tItem := b.NodeTypeID("ITEM")
	tFeature := b.NodeTypeID("FEATURE")
	eSup := b.EdgeTypeID("SUPPORTS")
	a := b.AddNode(tItem)
	bb := b.AddNode(tItem)
	f := b.AddNode(tFeature)
	b.AddEdge(a, f, eSup)
	b.AddEdge(bb, f, eSup)
	kgraph := b.Build()
	model, err := pin.NewModel(kgraph,
		[]*kg.MetaGraph{kg.PathMetaGraph("c", kg.Complementary, tItem, tFeature, eSup, eSup)},
		nil, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	gb := graph.NewBuilder(3, true)
	gb.AddEdge(0, 1, 0.5)
	gb.AddEdge(1, 2, 0.5)
	g := gb.Build()
	n, ni := g.N(), kgraph.NumItems()
	basePref := make([]float64, n*ni)
	cost := make([]float64, n*ni)
	for i := range cost {
		cost[i] = 1
		basePref[i] = 0.5
	}
	p := &diffusion.Problem{
		Substrate: &diffusion.Substrate{
			G: g, KG: kgraph, PIN: model,
			Importance: []float64{wA, wB},
			BasePref:   diffusion.MatrixFrom(basePref, ni), Cost: diffusion.MatrixFrom(cost, ni),
		},
		Budget: 100, T: 2, Params: diffusion.DefaultParams(),
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDynamicReachabilityHandComputed verifies the Eq. 9/10 recursion
// against manual arithmetic for depths 1 and 2 (Example 4's pattern:
// each level adds (r̄C−r̄S)·w per related pair plus the previous level).
func TestDynamicReachabilityHandComputed(t *testing.T) {
	const wA, wB, g = 2.0, 1.0, 0.25
	p := drProblem(t, wA, wB)
	s := newSolver(context.Background(), p, Options{MC: 4, MCSI: 4, Seed: 1})
	users := []int{0, 1, 2}
	mask := []bool{true, true, true}

	// depth 1: DR(A) = g·wB + wA·g ; DR(B) = g·wA + wB·g
	m := &Market{Users: users, Mask: mask, Diameter: 1}
	dr := s.dynamicReachability(m, nil, []int{0, 1})
	wantA := g*wB + wA*g
	wantB := g*wA + wB*g
	if math.Abs(dr[0]-wantA) > 1e-9 || math.Abs(dr[1]-wantB) > 1e-9 {
		t.Fatalf("depth 1: DR = %v/%v want %v/%v", dr[0], dr[1], wantA, wantB)
	}

	// depth 2: PI2(A) = g·wB + PI1(B) = g·wB + g·wA ; B2(A) = 2g
	m.Diameter = 2
	dr = s.dynamicReachability(m, nil, []int{0, 1})
	wantA = (g*wB + g*wA) + wA*2*g
	wantB = (g*wA + g*wB) + wB*2*g
	if math.Abs(dr[0]-wantA) > 1e-9 || math.Abs(dr[1]-wantB) > 1e-9 {
		t.Fatalf("depth 2: DR = %v/%v want %v/%v", dr[0], dr[1], wantA, wantB)
	}

	// the more important item wins DRE's argmax
	if best := s.bestItemByDR(m, nil, []int{0, 1}); best != 0 {
		t.Fatalf("bestItemByDR = %d, want the high-importance item", best)
	}
}

// TestDynamicReachabilityDepthCap: the recursion is capped at
// maxDRDepth even for huge market diameters.
func TestDynamicReachabilityDepthCap(t *testing.T) {
	p := drProblem(t, 1, 1)
	s := newSolver(context.Background(), p, Options{MC: 4, MCSI: 4, Seed: 1})
	m := &Market{Users: []int{0}, Mask: []bool{true, false, false}, Diameter: 10000}
	dr := s.dynamicReachability(m, nil, []int{0, 1})
	// capped depth keeps DR finite and equal to the maxDRDepth value
	m2 := &Market{Users: []int{0}, Mask: []bool{true, false, false}, Diameter: maxDRDepth}
	dr2 := s.dynamicReachability(m2, nil, []int{0, 1})
	if dr[0] != dr2[0] || dr[1] != dr2[1] {
		t.Fatalf("depth cap not applied: %v vs %v", dr, dr2)
	}
}
