package pin

import (
	"fmt"
	"sort"

	"imdpp/internal/kg"
)

// Contrib is one meta-graph's contribution to a related item pair.
type Contrib struct {
	Meta uint8   // index into the model's meta-graph list
	S    float64 // s(x,y|m)
}

// PairRel is one entry of an item's merged relevance row: the related
// item and the per-meta-graph contributions.
type PairRel struct {
	Y        int32
	Contribs []Contrib
}

// RelInit is one row entry's (rC, rS) under the initial weights.
type RelInit struct {
	RC, RS float64
}

// Model is the immutable relationship model shared by all users.
type Model struct {
	KG    *kg.KG
	Metas []*kg.MetaGraph // complementary first, then substitutable
	numC  int

	tables []*kg.RelTable
	// rows is the merged sparse structure: rows[x] lists every item
	// related to x under any meta-graph, sorted by Y, with the
	// per-meta contributions inline (symmetric: y appears in rows[x]
	// iff x appears in rows[y]).
	rows    [][]PairRel
	itemAdj [][]int32 // per item: sorted union of related items
	// initRel caches EvalContribs(InitWeights, ·) per row entry
	// (initRel[x][j] mirrors rows[x][j]): most users in a Monte-Carlo
	// sample never adopt, so their weights stay at InitWeights and the
	// diffusion hot loop can skip re-evaluating the weighted sum.
	initRel [][]RelInit
	// initMax[x] is the largest RC in initRel[x] (0 for an empty row):
	// the bound the diffusion engine's subset sampler scales a clean
	// user's association row by.
	initMax []float64
	// pos[x·|I|+y] is y's index in rows[x], or −1: the table Find
	// reads, built when |I| ≤ maxPosItems (nil above, where Find
	// searches the row instead).
	pos []int32

	// InitWeights is the initial Wmeta(u,·) every user starts with.
	InitWeights []float64
}

// NewModel builds relevance tables for every meta-graph and merges them
// into one sparse pair structure. metasC/metasS must be non-empty in
// total. initWeights, when nil, defaults to 0.3 per meta-graph (the
// paper's Fig. 1(c) uses small initial weightings that grow with
// adoptions).
func NewModel(g *kg.KG, metasC, metasS []*kg.MetaGraph, initWeights []float64) (*Model, error) {
	if len(metasC)+len(metasS) == 0 {
		return nil, fmt.Errorf("pin: no meta-graphs")
	}
	m := &Model{KG: g, numC: len(metasC)}
	m.Metas = append(m.Metas, metasC...)
	m.Metas = append(m.Metas, metasS...)
	for i, mg := range m.Metas {
		want := kg.Complementary
		if i >= m.numC {
			want = kg.Substitutable
		}
		if mg.Kind != want {
			return nil, fmt.Errorf("pin: meta-graph %q has kind %v, placed in %v list", mg.Name, mg.Kind, want)
		}
	}
	if initWeights == nil {
		initWeights = make([]float64, len(m.Metas))
		for i := range initWeights {
			initWeights[i] = 0.3
		}
	}
	if len(initWeights) != len(m.Metas) {
		return nil, fmt.Errorf("pin: initWeights len %d != %d meta-graphs", len(initWeights), len(m.Metas))
	}
	m.InitWeights = append([]float64(nil), initWeights...)

	pairs := make(map[uint64][]Contrib)
	for mi, mg := range m.Metas {
		t := kg.BuildRelTable(g, mg)
		m.tables = append(m.tables, t)
		for x := 0; x < g.NumItems(); x++ {
			for _, ir := range t.Row(x) {
				if int(ir.Other) < x {
					continue // unordered pairs once
				}
				key := pairKey(int32(x), ir.Other)
				pairs[key] = append(pairs[key], Contrib{Meta: uint8(mi), S: ir.S})
			}
		}
	}
	m.rows = make([][]PairRel, g.NumItems())
	for key, cs := range pairs {
		x := int32(key >> 32)
		y := int32(key & 0xffffffff)
		m.rows[x] = append(m.rows[x], PairRel{Y: y, Contribs: cs})
		m.rows[y] = append(m.rows[y], PairRel{Y: x, Contribs: cs})
	}
	m.itemAdj = make([][]int32, g.NumItems())
	m.initRel = make([][]RelInit, g.NumItems())
	m.initMax = make([]float64, g.NumItems())
	for x := range m.rows {
		row := m.rows[x]
		sort.Slice(row, func(a, b int) bool { return row[a].Y < row[b].Y })
		adj := make([]int32, len(row))
		init := make([]RelInit, len(row))
		for i, pr := range row {
			adj[i] = pr.Y
			init[i].RC, init[i].RS = m.EvalContribs(m.InitWeights, pr.Contribs)
		}
		m.itemAdj[x] = adj
		m.initRel[x] = init
		m.initMax[x] = maxRC(init)
	}
	m.buildPos()
	return m, nil
}

// ModelFromRows rebuilds a Model from its merged relevance rows — the
// wire image the shard subsystem ships to remote estimator workers.
// g supplies |I| (a minimal items-only KG suffices: the diffusion hot
// path never walks KG edges through the model); numC splits the
// initWeights-indexed meta-graph list into complementary then
// substitutable, matching NewModel's layout. The per-meta relevance
// tables, the item adjacency and the initial-weights relevance cache
// with its per-row maximum are all re-derived from the rows, and the
// derivations reuse the same arithmetic as NewModel, so a round-tripped
// model drives the diffusion — and hashes (Problem.ContentDigest) —
// identically to the original. Meta-graph schemas are not part of the wire image;
// Metas holds placeholders and only its length is meaningful. The
// floats are outside input too: every initial weighting must lie in
// [0,1] (the relevance cosine assumes non-negative weightings) and
// every contribution S in [0,1), the range kg.RelTable documents; a
// NaN fails both checks.
func ModelFromRows(g *kg.KG, numC int, initWeights []float64, rows [][]PairRel) (*Model, error) {
	numMeta := len(initWeights)
	if numMeta == 0 {
		return nil, fmt.Errorf("pin: no meta-graphs")
	}
	for mi, w := range initWeights {
		if !(w >= 0 && w <= 1) {
			return nil, fmt.Errorf("pin: initial weighting %d = %v outside [0,1]", mi, w)
		}
	}
	if numC < 0 || numC > numMeta {
		return nil, fmt.Errorf("pin: numC %d outside [0,%d]", numC, numMeta)
	}
	items := g.NumItems()
	if len(rows) != items {
		return nil, fmt.Errorf("pin: %d relevance rows != %d items", len(rows), items)
	}
	m := &Model{
		KG:          g,
		Metas:       make([]*kg.MetaGraph, numMeta),
		numC:        numC,
		rows:        rows,
		InitWeights: append([]float64(nil), initWeights...),
	}
	metaAdj := make([][][]kg.ItemRel, numMeta)
	for mi := range metaAdj {
		metaAdj[mi] = make([][]kg.ItemRel, items)
	}
	m.itemAdj = make([][]int32, items)
	m.initRel = make([][]RelInit, items)
	m.initMax = make([]float64, items)
	for x := range rows {
		row := rows[x]
		adj := make([]int32, len(row))
		init := make([]RelInit, len(row))
		for i, pr := range row {
			if int(pr.Y) < 0 || int(pr.Y) >= items {
				return nil, fmt.Errorf("pin: row %d: related item %d out of range", x, pr.Y)
			}
			if i > 0 && row[i-1].Y >= pr.Y {
				return nil, fmt.Errorf("pin: row %d not strictly ascending", x)
			}
			adj[i] = pr.Y
			// validate every meta index BEFORE EvalContribs touches the
			// weights slice: a corrupt upload must fail typed, not panic
			for _, c := range pr.Contribs {
				if int(c.Meta) >= numMeta {
					return nil, fmt.Errorf("pin: row %d: meta index %d out of range", x, c.Meta)
				}
				if !(c.S >= 0 && c.S < 1) {
					return nil, fmt.Errorf("pin: row %d: relevance %v outside [0,1)", x, c.S)
				}
			}
			init[i].RC, init[i].RS = m.EvalContribs(m.InitWeights, pr.Contribs)
			for _, c := range pr.Contribs {
				metaAdj[c.Meta][x] = append(metaAdj[c.Meta][x], kg.ItemRel{Other: pr.Y, S: c.S})
			}
		}
		m.itemAdj[x] = adj
		m.initRel[x] = init
		m.initMax[x] = maxRC(init)
	}
	for mi := range metaAdj {
		// rows are sorted by Y, so each filtered per-meta row is sorted
		// by Other — the same ordering BuildRelTable materialises
		m.tables = append(m.tables, kg.RelTableFromRows(metaAdj[mi]))
	}
	m.buildPos()
	return m, nil
}

// Rows returns the full merged relevance structure (rows[x] mirrors
// Row(x)) — the payload ModelFromRows round-trips. Do not modify.
func (m *Model) Rows() [][]PairRel { return m.rows }

func pairKey(x, y int32) uint64 {
	if x > y {
		x, y = y, x
	}
	return uint64(x)<<32 | uint64(uint32(y))
}

// NumMeta returns the total number of meta-graphs.
func (m *Model) NumMeta() int { return len(m.Metas) }

// NumC returns the number of complementary meta-graphs.
func (m *Model) NumC() int { return m.numC }

// NumItems returns |I|.
func (m *Model) NumItems() int { return m.KG.NumItems() }

// Neighbors returns the items related to x under any meta-graph,
// sorted ascending. The slice must not be modified.
func (m *Model) Neighbors(x int) []int32 { return m.itemAdj[x] }

// Row returns item x's merged relevance row sorted by Y; the hot loops
// of the diffusion engine iterate this directly. Do not modify.
func (m *Model) Row(x int) []PairRel { return m.rows[x] }

// InitRow returns item x's cached (rC, rS) row under InitWeights,
// aligned index-for-index with Row(x). Entries are bit-identical to
// EvalContribs(InitWeights, Row(x)[j].Contribs), so callers may use
// them whenever a user's weights are known to still be initial without
// perturbing any downstream RNG decision. Do not modify.
func (m *Model) InitRow(x int) []RelInit { return m.initRel[x] }

// InitMaxRC returns the largest RC in InitRow(x), or 0 when the row is
// empty.
func (m *Model) InitMaxRC(x int) float64 { return m.initMax[x] }

func maxRC(init []RelInit) float64 {
	mx := 0.0
	for _, ri := range init {
		mx = max(mx, ri.RC)
	}
	return mx
}

// EvalContribs turns one row entry's contributions into (rC, rS) under
// weighting vector w, clamped to [0,1].
func (m *Model) EvalContribs(w []float64, cs []Contrib) (rc, rs float64) {
	for _, c := range cs {
		v := w[c.Meta] * c.S
		if int(c.Meta) < m.numC {
			rc += v
		} else {
			rs += v
		}
	}
	return clamp01(rc), clamp01(rs)
}

// Rel evaluates (rC, rS) between items x and y under weighting vector
// w (one weight per meta-graph, as stored per user by the diffusion
// state). Both are clamped to [0,1].
func (m *Model) Rel(w []float64, x, y int) (rc, rs float64) {
	if x == y {
		return 0, 0
	}
	j := m.Find(x, y)
	if j < 0 {
		return 0, 0
	}
	return m.EvalContribs(w, m.rows[x][j].Contribs)
}

// maxPosItems bounds the item count up to which a Model keeps Find's
// dense position table: |I|² int32s, 16 MiB at the bound (57.6 KB at
// Douban scale 1.0's 120 items). ModelFromRows also builds models
// from shard uploads, whose item count the sender chooses, so the
// table must not grow without bound.
const maxPosItems = 2048

// buildPos fills Find's position table from the sorted rows.
func (m *Model) buildPos() {
	n := len(m.rows)
	if n > maxPosItems {
		return
	}
	m.pos = make([]int32, n*n)
	for i := range m.pos {
		m.pos[i] = -1
	}
	for x, row := range m.rows {
		for j, pr := range row {
			m.pos[x*n+int(pr.Y)] = int32(j)
		}
	}
}

// Find returns the index of item y in Row(x), or -1 when y is not
// related to x: one load from the position table, or a binary search
// of the row on a model too large for the table. It fits the inline
// budget (scripts/inline_check.sh), so the diffusion engine's
// on-demand Δpref pays no call per lookup; search is kept out of line
// for that.
func (m *Model) Find(x, y int) int {
	if m.pos != nil {
		return int(m.pos[x*len(m.rows)+y])
	}
	return m.search(x, y)
}

// search is Find's binary search over Row(x), which is sorted by Y.
//
//go:noinline
func (m *Model) search(x, y int) int {
	row := m.rows[x]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(row[mid].Y) < y {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && int(row[lo].Y) == y {
		return lo
	}
	return -1
}

// RelStatic evaluates (rC, rS) under the initial weights — the
// "relevance over all users before any adoption" view used by TMI when
// clustering nominees.
func (m *Model) RelStatic(x, y int) (rc, rs float64) {
	return m.Rel(m.InitWeights, x, y)
}

// SupportOf returns Σ_{b ∈ adopted, b≠a} s(a,b|m) for meta-graph mi —
// how well meta-graph mi explains co-adoption of a with the already
// adopted items. adopted is the user's adoption bitset row, the
// diffusion state's layout: item b is adopted iff bit b%64 of word b/64
// is set, with one word per 64 items.
func (m *Model) SupportOf(mi int, a int, adopted []uint64) float64 {
	t := m.tables[mi]
	sum := 0.0
	for _, ir := range t.Row(a) {
		b := uint(ir.Other)
		if int(b) != a && adopted[b/64]&(1<<(b%64)) != 0 {
			sum += ir.S
		}
	}
	return sum
}

// UpdateWeights applies the relevance-measurement update for user
// weights w after the user newly adopted items newItems (the whole
// adoption set, new items included, is the bitset row adopted, laid
// out as in SupportOf):
//
//	Wmeta(u,m) ← min(1, Wmeta(u,m) + η·Σ_{a∈new} SupportOf(m,a))
//
// It reports whether any weight changed.
func (m *Model) UpdateWeights(w []float64, newItems []int32, adopted []uint64, eta float64) bool {
	changed := false
	for mi := range m.Metas {
		sup := 0.0
		for _, a := range newItems {
			sup += m.SupportOf(mi, int(a), adopted)
		}
		if sup == 0 {
			continue
		}
		nw := w[mi] + eta*sup
		if nw > 1 {
			nw = 1
		}
		if nw != w[mi] {
			w[mi] = nw
			changed = true
		}
	}
	return changed
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
