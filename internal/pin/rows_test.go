package pin_test

import (
	"math"
	"testing"

	"imdpp/internal/dataset"
	"imdpp/internal/pin"
)

// TestPresetRowsAscendingNoSelf checks the row invariant the diffusion
// engine's association loop relies on (DESIGN.md §3): every merged row
// of a preset's NewModel is strictly ascending in Y and has no entry
// for its own item, so a row walk never meets an item twice and never
// meets the promoted item. ModelFromRows refuses rows that
// break the first half on the wire side.
func TestPresetRowsAscendingNoSelf(t *testing.T) {
	for _, preset := range []struct {
		name  string
		build func(dataset.Scale) (*dataset.Dataset, error)
	}{
		{"Amazon", dataset.Amazon},
		{"Yelp", dataset.Yelp},
		{"Douban", dataset.Douban},
	} {
		d, err := preset.build(0.25)
		if err != nil {
			t.Fatalf("%s: %v", preset.name, err)
		}
		entries := 0
		for x, row := range d.Problem.PIN.Rows() {
			for j, pr := range row {
				if int(pr.Y) == x {
					t.Fatalf("%s: row %d has an entry for itself", preset.name, x)
				}
				if j > 0 && row[j-1].Y >= pr.Y {
					t.Fatalf("%s: row %d not strictly ascending at entry %d (%d then %d)",
						preset.name, x, j, row[j-1].Y, pr.Y)
				}
			}
			entries += len(row)
		}
		if entries == 0 {
			t.Fatalf("%s: no PIN row entries; the check is vacuous", preset.name)
		}
	}
}

// TestInitMaxRCMatchesRows checks the per-row bound the engine's
// subset sampler scales clean association rows by: InitMaxRC(x) is the
// largest RC of InitRow(x) (0 for an empty row), and ModelFromRows
// re-derives the same bits from the wire rows, so shard workers sample
// with the coordinator's bound.
func TestInitMaxRCMatchesRows(t *testing.T) {
	d, err := dataset.Amazon(0.25)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Problem.PIN
	wire, err := pin.ModelFromRows(m.KG, m.NumC(), m.InitWeights, m.Rows())
	if err != nil {
		t.Fatal(err)
	}
	positive := 0
	for x := 0; x < m.NumItems(); x++ {
		want := 0.0
		for _, ri := range m.InitRow(x) {
			if ri.RC > want {
				want = ri.RC
			}
		}
		if got := m.InitMaxRC(x); got != want {
			t.Fatalf("item %d: InitMaxRC %v, want %v", x, got, want)
		}
		if got := wire.InitMaxRC(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("item %d: ModelFromRows InitMaxRC %v, want %v", x, got, want)
		}
		if want > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Fatal("no row with a positive RC; the check is vacuous")
	}
}

// TestFindMatchesRows checks Find against a scan of the rows: for
// every (x, y) of a preset's NewModel and of its ModelFromRows copy,
// Find returns y's index in Row(x), or −1 when y is not there (x itself
// included). A model of more than maxPosItems items keeps no position
// table and searches its rows, with the same answers.
func TestFindMatchesRows(t *testing.T) {
	d, err := dataset.Douban(0.25)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Problem.PIN
	wire, err := pin.ModelFromRows(m.KG, m.NumC(), m.InitWeights, m.Rows())
	if err != nil {
		t.Fatal(err)
	}
	large := pin.LargeModelForTest(t)
	for _, c := range []struct {
		name string
		m    *pin.Model
	}{{"NewModel", m}, {"ModelFromRows", wire}, {"large", large}} {
		found := 0
		for x := range c.m.NumItems() {
			want := make(map[int]int)
			for j, pr := range c.m.Row(x) {
				want[int(pr.Y)] = j
			}
			for y := range c.m.NumItems() {
				j, ok := want[y]
				if !ok {
					j = -1
				}
				if got := c.m.Find(x, y); got != j {
					t.Fatalf("%s: Find(%d, %d) = %d, want %d", c.name, x, y, got, j)
				}
				if j >= 0 {
					found++
				}
			}
		}
		if found == 0 {
			t.Fatalf("%s: no related pair; the check is vacuous", c.name)
		}
	}
}
