package pin_test

import (
	"testing"

	"imdpp/internal/dataset"
)

// TestPresetRowsAscendingNoSelf checks the row invariant the diffusion
// engine's clean-user association loop relies on (DESIGN.md §3): every
// merged row of a preset's NewModel is strictly ascending in Y and has
// no entry for its own item, so a row walk never meets an item twice
// and never meets the promoted item. ModelFromRows refuses rows that
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
