package kg

import (
	"testing"
)

// fig1KG builds the paper's Fig. 1(a) toy knowledge graph: iPhone,
// AirPods, wireless charger and charging cable; features Bluetooth and
// Qi standard; brand Apple Inc. It returns the KG and the item ids.
func fig1KG(t *testing.T) (g *KG, iPhone, airPods, charger, cable int) {
	t.Helper()
	b := NewBuilder()
	tItem := b.NodeTypeID("ITEM")
	tFeature := b.NodeTypeID("FEATURE")
	tBrand := b.NodeTypeID("BRAND")
	eSupports := b.EdgeTypeID("SUPPORTS")
	eMadeBy := b.EdgeTypeID("MADE_BY")
	ePairs := b.EdgeTypeID("PAIRS_WITH")

	nIPhone := b.AddNode(tItem)
	nAirPods := b.AddNode(tItem)
	nCharger := b.AddNode(tItem)
	nCable := b.AddNode(tItem)
	nBluetooth := b.AddNode(tFeature)
	nQi := b.AddNode(tFeature)
	nApple := b.AddNode(tBrand)

	// ITEM iPhone and ITEM AirPods SUPPORT the FEATURE Bluetooth
	b.AddEdge(nIPhone, nBluetooth, eSupports)
	b.AddEdge(nAirPods, nBluetooth, eSupports)
	// iPhone and wireless charger support Qi
	b.AddEdge(nIPhone, nQi, eSupports)
	b.AddEdge(nCharger, nQi, eSupports)
	// all four made by Apple
	for _, n := range []int{nIPhone, nAirPods, nCharger, nCable} {
		b.AddEdge(n, nApple, eMadeBy)
	}
	// explicit pairing: cable pairs with iPhone
	b.AddEdge(nCable, nIPhone, ePairs)

	g = b.Build()
	return g, g.ItemID(nIPhone), g.ItemID(nAirPods), g.ItemID(nCharger), g.ItemID(nCable)
}

func TestBuilderTypeRegistration(t *testing.T) {
	b := NewBuilder()
	a := b.NodeTypeID("ITEM")
	b2 := b.NodeTypeID("FEATURE")
	if a == b2 {
		t.Fatal("distinct types share id")
	}
	if again := b.NodeTypeID("ITEM"); again != a {
		t.Fatal("re-registration changed id")
	}
	e1 := b.EdgeTypeID("SUPPORTS")
	if e2 := b.EdgeTypeID("SUPPORTS"); e2 != e1 {
		t.Fatal("edge type re-registration changed id")
	}
}

func TestBuildRequiresItemType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build without ITEM type did not panic")
		}
	}()
	b := NewBuilder()
	tt := b.NodeTypeID("THING")
	b.AddNode(tt)
	b.Build()
}

func TestKGBasics(t *testing.T) {
	g, iPhone, airPods, charger, cable := fig1KG(t)
	if g.NumItems() != 4 {
		t.Fatalf("items = %d", g.NumItems())
	}
	for _, id := range []int{iPhone, airPods, charger, cable} {
		if id < 0 || id >= 4 {
			t.Fatalf("bad item id %d", id)
		}
	}
	if g.NumNodeTypes() != 3 || g.NumEdgeTypes() != 3 {
		t.Fatalf("types: %d/%d", g.NumNodeTypes(), g.NumEdgeTypes())
	}
	if g.M() != 9 {
		t.Fatalf("edges = %d", g.M())
	}
	// item/node id mapping round-trips
	for i := 0; i < g.NumItems(); i++ {
		if g.ItemID(g.ItemNode(i)) != i {
			t.Fatalf("item %d mapping broken", i)
		}
	}
	if tt, ok := g.LookupNodeType("FEATURE"); !ok || g.NodeTypeName(tt) != "FEATURE" {
		t.Fatal("LookupNodeType failed")
	}
	if _, ok := g.LookupNodeType("NOPE"); ok {
		t.Fatal("found nonexistent type")
	}
	if _, ok := g.LookupEdgeType("NOPE"); ok {
		t.Fatal("found nonexistent edge type")
	}
}

func TestPathMetaGraphCounts(t *testing.T) {
	g, iPhone, airPods, charger, cable := fig1KG(t)
	tItem, _ := g.LookupNodeType("ITEM")
	tFeature, _ := g.LookupNodeType("FEATURE")
	eSupports, _ := g.LookupEdgeType("SUPPORTS")
	m1 := PathMetaGraph("m1", Complementary, tItem, tFeature, eSupports, eSupports)

	// iPhone and AirPods share exactly Bluetooth
	if c := m1.CountInstances(g, g.ItemNode(iPhone), g.ItemNode(airPods)); c != 1 {
		t.Fatalf("iPhone-AirPods common features = %d", c)
	}
	// iPhone and charger share Qi
	if c := m1.CountInstances(g, g.ItemNode(iPhone), g.ItemNode(charger)); c != 1 {
		t.Fatalf("iPhone-charger = %d", c)
	}
	// AirPods and charger share nothing
	if c := m1.CountInstances(g, g.ItemNode(airPods), g.ItemNode(charger)); c != 0 {
		t.Fatalf("AirPods-charger = %d", c)
	}
	_ = cable
}

func TestDirectMetaGraphCounts(t *testing.T) {
	g, iPhone, _, _, cable := fig1KG(t)
	tItem, _ := g.LookupNodeType("ITEM")
	ePairs, _ := g.LookupEdgeType("PAIRS_WITH")
	m3 := DirectMetaGraph("m3", Complementary, tItem, ePairs)
	if c := m3.CountInstances(g, g.ItemNode(cable), g.ItemNode(iPhone)); c != 1 {
		t.Fatalf("cable→iPhone direct = %d", c)
	}
	// direction matters for CountInstances (table symmetrises)
	if c := m3.CountInstances(g, g.ItemNode(iPhone), g.ItemNode(cable)); c != 0 {
		t.Fatalf("iPhone→cable direct = %d", c)
	}
}

func TestDiamondMetaGraphCounts(t *testing.T) {
	g, iPhone, airPods, charger, _ := fig1KG(t)
	tItem, _ := g.LookupNodeType("ITEM")
	tFeature, _ := g.LookupNodeType("FEATURE")
	tBrand, _ := g.LookupNodeType("BRAND")
	eSupports, _ := g.LookupEdgeType("SUPPORTS")
	eMadeBy, _ := g.LookupEdgeType("MADE_BY")
	dm := DiamondMetaGraph("dm", Complementary, tItem, tFeature, tBrand, eSupports, eMadeBy)
	// iPhone/AirPods: common feature (Bluetooth) AND common brand → 1·1
	if c := dm.CountInstances(g, g.ItemNode(iPhone), g.ItemNode(airPods)); c != 1 {
		t.Fatalf("diamond iPhone-AirPods = %d", c)
	}
	_ = charger
}

func TestRelTablePathShape(t *testing.T) {
	g, iPhone, airPods, charger, cable := fig1KG(t)
	tItem, _ := g.LookupNodeType("ITEM")
	tFeature, _ := g.LookupNodeType("FEATURE")
	eSupports, _ := g.LookupEdgeType("SUPPORTS")
	tab := BuildRelTable(g, PathMetaGraph("m1", Complementary, tItem, tFeature, eSupports, eSupports))

	// one shared feature → s = 1/2, symmetric
	if s := tab.S(iPhone, airPods); s != 0.5 {
		t.Fatalf("s(iPhone,airPods)=%v", s)
	}
	if s := tab.S(airPods, iPhone); s != 0.5 {
		t.Fatalf("not symmetric: %v", s)
	}
	if s := tab.S(airPods, charger); s != 0 {
		t.Fatalf("unrelated pair s=%v", s)
	}
	if s := tab.S(iPhone, iPhone); s != 0 {
		t.Fatalf("self-relevance %v", s)
	}
	if tab.NumPairs() != 2 {
		t.Fatalf("pairs = %d", tab.NumPairs())
	}
	_ = cable
}

func TestRelTableDirectSymmetrised(t *testing.T) {
	g, iPhone, _, _, cable := fig1KG(t)
	tItem, _ := g.LookupNodeType("ITEM")
	ePairs, _ := g.LookupEdgeType("PAIRS_WITH")
	tab := BuildRelTable(g, DirectMetaGraph("m3", Complementary, tItem, ePairs))
	if s := tab.S(iPhone, cable); s != 0.5 {
		t.Fatalf("direct s=%v", s)
	}
	if s := tab.S(cable, iPhone); s != 0.5 {
		t.Fatalf("direct reverse s=%v", s)
	}
}

func TestRelTableBrandPath(t *testing.T) {
	g, iPhone, airPods, charger, cable := fig1KG(t)
	tItem, _ := g.LookupNodeType("ITEM")
	tBrand, _ := g.LookupNodeType("BRAND")
	eMadeBy, _ := g.LookupEdgeType("MADE_BY")
	tab := BuildRelTable(g, PathMetaGraph("m2", Complementary, tItem, tBrand, eMadeBy, eMadeBy))
	// all 4 items share Apple → C(4,2)=6 pairs, each s=1/2
	if tab.NumPairs() != 6 {
		t.Fatalf("brand pairs = %d", tab.NumPairs())
	}
	for _, pair := range [][2]int{{iPhone, airPods}, {charger, cable}, {airPods, cable}} {
		if s := tab.S(pair[0], pair[1]); s != 0.5 {
			t.Fatalf("brand s(%v)=%v", pair, s)
		}
	}
}

func TestGenericMatchesStructural(t *testing.T) {
	// A bespoke schema the shape detector does not recognise: a 2-hop
	// chain ITEM→FEATURE←ITEM expressed with reversed construction so
	// isPath() fails, forcing the generic counter; results must match
	// the structural path counter.
	g, iPhone, airPods, _, _ := fig1KG(t)
	tItem, _ := g.LookupNodeType("ITEM")
	tFeature, _ := g.LookupNodeType("FEATURE")
	eSupports, _ := g.LookupEdgeType("SUPPORTS")

	path := PathMetaGraph("m1", Complementary, tItem, tFeature, eSupports, eSupports)
	structural := BuildRelTable(g, path)

	// same semantics via generic machinery: build a schema with an
	// extra no-op ordering (nodes 0,1 endpoints; mid node appended
	// after a dummy) — four nodes would change semantics, so instead
	// verify CountInstances agreement pair-by-pair.
	for x := 0; x < g.NumItems(); x++ {
		for y := 0; y < g.NumItems(); y++ {
			if x == y {
				continue
			}
			c := path.CountInstances(g, g.ItemNode(x), g.ItemNode(y))
			want := 0.0
			if c > 0 {
				want = float64(c) / float64(c+1)
			}
			if s := structural.S(x, y); s != want {
				t.Fatalf("pair (%d,%d): table %v vs generic count %d", x, y, s, c)
			}
		}
	}
	_, _ = iPhone, airPods
}

func TestMetaGraphKindString(t *testing.T) {
	if Complementary.String() != "complementary" || Substitutable.String() != "substitutable" {
		t.Fatal("RelKind strings wrong")
	}
}
