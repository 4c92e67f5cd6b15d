package pin

import (
	"testing"

	"imdpp/internal/kg"
)

// LargeModelForTest is a model of maxPosItems+1 items, too many for
// Find's position table: item i is related to items i±1 and i±7 (one
// complementary meta-graph), so Find must search each row.
func LargeModelForTest(t testing.TB) *Model {
	t.Helper()
	n := maxPosItems + 1
	b := kg.NewBuilder()
	tItem := b.NodeTypeID("ITEM")
	for range n {
		b.AddNode(tItem)
	}
	rows := make([][]PairRel, n)
	for x := range rows {
		for _, y := range []int{x - 7, x - 1, x + 1, x + 7} {
			if y >= 0 && y < n {
				rows[x] = append(rows[x], PairRel{Y: int32(y), Contribs: []Contrib{{Meta: 0, S: 0.5}}})
			}
		}
	}
	m, err := ModelFromRows(b.Build(), 1, []float64{0.3}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if m.pos != nil {
		t.Fatalf("a %d-item model built a position table", n)
	}
	return m
}
