package pin

import (
	"math"
	"testing"
	"testing/quick"

	"imdpp/internal/kg"
)

// appleKG rebuilds the paper's Fig. 1 toy KG (iPhone, AirPods,
// wireless charger, charging cable) plus a substitutable rival pair,
// and returns the model inputs.
func appleKG(t *testing.T) (g *kg.KG, metaC, metaS []*kg.MetaGraph, ids map[string]int) {
	t.Helper()
	b := kg.NewBuilder()
	tItem := b.NodeTypeID("ITEM")
	tFeature := b.NodeTypeID("FEATURE")
	tBrand := b.NodeTypeID("BRAND")
	tCategory := b.NodeTypeID("CATEGORY")
	eSupports := b.EdgeTypeID("SUPPORTS")
	eMadeBy := b.EdgeTypeID("MADE_BY")
	eInCat := b.EdgeTypeID("IN_CATEGORY")

	nIPhone := b.AddNode(tItem)
	nAirPods := b.AddNode(tItem)
	nCharger := b.AddNode(tItem)
	nBuds := b.AddNode(tItem) // rival earbuds, substitutable with AirPods
	nBluetooth := b.AddNode(tFeature)
	nQi := b.AddNode(tFeature)
	nApple := b.AddNode(tBrand)
	nAudio := b.AddNode(tCategory)

	b.AddEdge(nIPhone, nBluetooth, eSupports)
	b.AddEdge(nAirPods, nBluetooth, eSupports)
	b.AddEdge(nIPhone, nQi, eSupports)
	b.AddEdge(nCharger, nQi, eSupports)
	b.AddEdge(nIPhone, nApple, eMadeBy)
	b.AddEdge(nAirPods, nApple, eMadeBy)
	b.AddEdge(nCharger, nApple, eMadeBy)
	b.AddEdge(nAirPods, nAudio, eInCat)
	b.AddEdge(nBuds, nAudio, eInCat)

	g = b.Build()
	metaC = []*kg.MetaGraph{
		kg.PathMetaGraph("m1:feature", kg.Complementary, tItem, tFeature, eSupports, eSupports),
		kg.PathMetaGraph("m2:brand", kg.Complementary, tItem, tBrand, eMadeBy, eMadeBy),
	}
	metaS = []*kg.MetaGraph{
		kg.PathMetaGraph("s1:category", kg.Substitutable, tItem, tCategory, eInCat, eInCat),
	}
	ids = map[string]int{
		"iPhone":  g.ItemID(nIPhone),
		"AirPods": g.ItemID(nAirPods),
		"Charger": g.ItemID(nCharger),
		"Buds":    g.ItemID(nBuds),
	}
	return g, metaC, metaS, ids
}

func newTestModel(t *testing.T, init []float64) (*Model, map[string]int) {
	t.Helper()
	g, mc, ms, ids := appleKG(t)
	m, err := NewModel(g, mc, ms, init)
	if err != nil {
		t.Fatal(err)
	}
	return m, ids
}

func TestNewModelValidation(t *testing.T) {
	g, mc, ms, _ := appleKG(t)
	if _, err := NewModel(g, nil, nil, nil); err == nil {
		t.Fatal("empty meta-graphs accepted")
	}
	if _, err := NewModel(g, ms, nil, nil); err == nil {
		t.Fatal("substitutable meta accepted in complementary list")
	}
	if _, err := NewModel(g, mc, ms, []float64{1}); err == nil {
		t.Fatal("wrong initWeights length accepted")
	}
	if _, err := NewModel(g, mc, ms, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelCounts(t *testing.T) {
	m, _ := newTestModel(t, nil)
	if m.NumMeta() != 3 || m.NumC() != 2 {
		t.Fatalf("meta counts %d/%d", m.NumMeta(), m.NumC())
	}
	if m.NumItems() != 4 {
		t.Fatalf("items %d", m.NumItems())
	}
	if len(m.InitWeights) != 3 {
		t.Fatalf("init weights %v", m.InitWeights)
	}
}

func TestRelValues(t *testing.T) {
	m, ids := newTestModel(t, []float64{0.4, 0.2, 0.6})
	// iPhone-AirPods: feature s=0.5 (Bluetooth) w=0.4, brand s=0.5 w=0.2
	rc, rs := m.Rel([]float64{0.4, 0.2, 0.6}, ids["iPhone"], ids["AirPods"])
	if math.Abs(rc-(0.4*0.5+0.2*0.5)) > 1e-12 {
		t.Fatalf("rc = %v", rc)
	}
	if rs != 0 {
		t.Fatalf("rs = %v", rs)
	}
	// AirPods-Buds: category s=0.5 w=0.6 substitutable only
	rc, rs = m.Rel([]float64{0.4, 0.2, 0.6}, ids["AirPods"], ids["Buds"])
	if rc != 0 || math.Abs(rs-0.3) > 1e-12 {
		t.Fatalf("rc=%v rs=%v", rc, rs)
	}
	// self
	if rc, rs = m.Rel(m.InitWeights, ids["iPhone"], ids["iPhone"]); rc != 0 || rs != 0 {
		t.Fatal("self relevance nonzero")
	}
	// unrelated: Charger-Buds
	if rc, rs = m.Rel(m.InitWeights, ids["Charger"], ids["Buds"]); rc != 0 || rs != 0 {
		t.Fatal("unrelated pair nonzero")
	}
}

func TestRelSymmetry(t *testing.T) {
	m, _ := newTestModel(t, nil)
	w := []float64{0.7, 0.1, 0.9}
	for x := 0; x < m.NumItems(); x++ {
		for y := 0; y < m.NumItems(); y++ {
			c1, s1 := m.Rel(w, x, y)
			c2, s2 := m.Rel(w, y, x)
			if c1 != c2 || s1 != s2 {
				t.Fatalf("asymmetric relevance (%d,%d)", x, y)
			}
		}
	}
}

func TestRelLinearInWeights(t *testing.T) {
	m, ids := newTestModel(t, nil)
	x, y := ids["iPhone"], ids["AirPods"]
	f := func(aRaw, bRaw uint8) bool {
		a := float64(aRaw) / 512 // keep sums below the clamp
		b := float64(bRaw) / 512
		rcA, _ := m.Rel([]float64{a, 0, 0}, x, y)
		rcB, _ := m.Rel([]float64{b, 0, 0}, x, y)
		rcAB, _ := m.Rel([]float64{a + b, 0, 0}, x, y)
		return math.Abs(rcAB-(rcA+rcB)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelClamped(t *testing.T) {
	m, ids := newTestModel(t, nil)
	// huge weights must clamp at 1
	rc, _ := m.Rel([]float64{100, 100, 100}, ids["iPhone"], ids["AirPods"])
	if rc != 1 {
		t.Fatalf("rc = %v, want clamp at 1", rc)
	}
}

func TestNeighbors(t *testing.T) {
	m, ids := newTestModel(t, nil)
	nb := m.Neighbors(ids["iPhone"])
	// iPhone relates to AirPods (feature+brand) and Charger (feature+brand)
	if len(nb) != 2 {
		t.Fatalf("iPhone neighbors %v", nb)
	}
	for i := 1; i < len(nb); i++ {
		if nb[i] <= nb[i-1] {
			t.Fatalf("neighbors not sorted: %v", nb)
		}
	}
	// Buds relates only to AirPods
	nb = m.Neighbors(ids["Buds"])
	if len(nb) != 1 || int(nb[0]) != ids["AirPods"] {
		t.Fatalf("Buds neighbors %v", nb)
	}
}

func TestRowMatchesRel(t *testing.T) {
	m, _ := newTestModel(t, nil)
	w := []float64{0.5, 0.25, 0.75}
	for x := 0; x < m.NumItems(); x++ {
		for _, pr := range m.Row(x) {
			rc1, rs1 := m.EvalContribs(w, pr.Contribs)
			rc2, rs2 := m.Rel(w, x, int(pr.Y))
			if rc1 != rc2 || rs1 != rs2 {
				t.Fatalf("Row/Rel disagree at (%d,%d)", x, pr.Y)
			}
		}
	}
}

// adoptedRow builds an adoption bitset row over m's items with the
// given items set, in the layout SupportOf and UpdateWeights read.
func adoptedRow(m *Model, items ...int) []uint64 {
	row := make([]uint64, (m.NumItems()+63)/64)
	for _, x := range items {
		row[x/64] |= 1 << (uint(x) % 64)
	}
	return row
}

func TestSupportOf(t *testing.T) {
	m, ids := newTestModel(t, nil)
	adopted := adoptedRow(m, ids["iPhone"])
	// support of AirPods under m1 (feature): s(AirPods,iPhone|m1)=0.5
	sup := m.SupportOf(0, ids["AirPods"], adopted)
	if math.Abs(sup-0.5) > 1e-12 {
		t.Fatalf("support %v", sup)
	}
	// support under s1 (category): iPhone not in audio category → 0
	sup = m.SupportOf(2, ids["AirPods"], adopted)
	if sup != 0 {
		t.Fatalf("category support %v", sup)
	}
}

func TestUpdateWeightsGrowsExplainingMeta(t *testing.T) {
	m, ids := newTestModel(t, []float64{0.2, 0.2, 0.6})
	w := append([]float64(nil), m.InitWeights...)
	adopted := adoptedRow(m, ids["iPhone"], ids["AirPods"])
	changed := m.UpdateWeights(w, []int32{int32(ids["AirPods"])}, adopted, 0.25)
	if !changed {
		t.Fatal("no weight change")
	}
	// Fig. 1(c)→(d): weightings on m1 (feature) and m2 (brand) grow…
	if w[0] <= 0.2 || w[1] <= 0.2 {
		t.Fatalf("complementary weightings did not grow: %v", w)
	}
	// …while the substitutable meta stays (AirPods/iPhone share no category)
	if w[2] != 0.6 {
		t.Fatalf("substitutable weighting moved: %v", w)
	}
}

func TestUpdateWeightsCapAtOne(t *testing.T) {
	m, ids := newTestModel(t, []float64{0.99, 0.99, 0.99})
	w := append([]float64(nil), m.InitWeights...)
	adopted := adoptedRow(m, ids["iPhone"], ids["AirPods"], ids["Charger"])
	m.UpdateWeights(w, []int32{int32(ids["AirPods"]), int32(ids["Charger"])}, adopted, 10)
	for i, v := range w {
		if v > 1 {
			t.Fatalf("weight %d over cap: %v", i, v)
		}
	}
}

func TestUpdateWeightsNoSupportNoChange(t *testing.T) {
	m, ids := newTestModel(t, nil)
	w := append([]float64(nil), m.InitWeights...)
	// Buds alone: nothing else adopted → no support anywhere
	changed := m.UpdateWeights(w, []int32{int32(ids["Buds"])}, adoptedRow(m), 0.25)
	if changed {
		t.Fatalf("unexpected change: %v", w)
	}
}
