package diffusion

import (
	"fmt"
	"sync"
	"testing"

	"imdpp/internal/graph"
	"imdpp/internal/rng"
)

// prefixProblem is a 4-promotion instance with every dynamic factor
// live (or frozen under static), so a checkpoint that drops any row of
// the state moves the outcome of the promotions after it.
func prefixProblem(t *testing.T, static bool) *Problem {
	t.Helper()
	r := rng.New(0x9F1)
	g := graph.BarabasiAlbert(60, 3, false, graph.WeightModel{Mean: 0.35, Jitter: 0.4}, r)
	params := DefaultParams()
	params.Static = static
	return testProblem(t, g, func(u, x int) float64 {
		return 0.15 + 0.07*float64((u*7+x*13)%10)
	}, []float64{1, 0.5, 2, 1.25}, 4, params)
}

// prefixBase is the root schedule: two seeds in each of promotions
// 1..4, so seed order inside a promotion is observable.
var prefixBase = []Seed{
	{User: 0, Item: 0, T: 1}, {User: 7, Item: 1, T: 1},
	{User: 3, Item: 2, T: 2}, {User: 11, Item: 3, T: 2},
	{User: 5, Item: 1, T: 3}, {User: 17, Item: 0, T: 3},
	{User: 20, Item: 3, T: 4}, {User: 9, Item: 2, T: 4},
}

// prefixGroups returns a batch whose group 0 is prefixBase and the
// promotions each later group shares with it. Shallow and deep groups
// are interleaved so the engine's deepest-first order is not the
// batch order.
func prefixGroups() ([][]Seed, []int) {
	extra := func(d int) []Seed { // shares exactly d promotions
		return WithSeed(prefixBase, Seed{User: 30 + d, Item: d % 4, T: d + 1})
	}
	swapped := CloneSeeds(prefixBase) // promotion 2 in the other order
	swapped[2], swapped[3] = swapped[3], swapped[2]
	reordered := append(CloneSeeds(prefixBase[6:]), prefixBase[:6]...) // same per-promotion lists
	dropped := append(CloneSeeds(prefixBase[:5]), prefixBase[6:]...)
	groups := [][]Seed{
		prefixBase,
		extra(2),
		extra(0),
		CloneSeeds(prefixBase), // exact duplicate
		extra(1),
		swapped,
		extra(3),
		nil,
		reordered,
		dropped, // promotion 3 loses a seed
		extra(2),
	}
	depths := []int{4, 2, 0, 4, 1, 1, 3, 0, 4, 2, 2}
	return groups, depths
}

// TestSharedPromotions pins the sharing the batch is built to have, so
// the differential tests below cannot pass by reusing nothing.
func TestSharedPromotions(t *testing.T) {
	groups, depths := prefixGroups()
	for g, seeds := range groups {
		if got := sharedPromotions(groups[0], seeds, 4); got != depths[g] {
			t.Errorf("group %d shares %d promotions, want %d", g, got, depths[g])
		}
	}
	all := func(int) []bool { return nil }
	fams := planFamilies(groups, all, 4)
	if len(fams) != 3 || fams[0].size() != 9 || fams[1].root != 2 || fams[2].root != 7 {
		t.Fatalf("families %+v, want group 0 with 8 sharers, then 2 and 7 alone", fams)
	}
	if fmt.Sprint(fams[0].cuts) != "[1 2 3]" {
		t.Fatalf("cuts %v, want [1 2 3]", fams[0].cuts)
	}
	for j := 1; j < len(fams[0].shared); j++ {
		if fams[0].shared[j].depth > fams[0].shared[j-1].depth {
			t.Fatalf("sharers not deepest first: %+v", fams[0].shared)
		}
	}
	mask := make([]bool, 60)
	other := make([]bool, 60)
	other[1] = true
	masks := func(g int) []bool {
		if g == 4 {
			return other
		}
		return append([]bool(nil), mask...) // equal content, own slice
	}
	if got := planFamilies(groups, masks, 4)[0].size(); got != 8 {
		t.Fatalf("family of %d groups, want 8: a different mask must not share, an equal one must", got)
	}
}

// perGroupRun is the reference: each group alone, one worker, so no
// group ever resumes from another's checkpoint.
func perGroupRun(p *Problem, m int, seed uint64, groups [][]Seed, masks [][]bool, withPi bool) []Estimate {
	e := NewEstimator(p, m, seed)
	e.Workers = 1
	out := make([]Estimate, len(groups))
	for g, seeds := range groups {
		out[g] = e.Run(seeds, masks[g], withPi)
	}
	return out
}

func requireEstimates(t *testing.T, what string, got, want []Estimate) {
	t.Helper()
	for g := range want {
		if !estimatesEqual(got[g], want[g]) {
			t.Fatalf("%s group %d: %+v != per-group Run %+v", what, g, got[g], want[g])
		}
	}
}

// TestPrefixReuseMatchesRun is the differential test of promotion-
// prefix reuse: every batch entry point, at every worker count, with a
// shared mask, per-group masks and a grid cache, must return the bits
// of running each group alone.
func TestPrefixReuseMatchesRun(t *testing.T) {
	const m, seed = 29, 0x5EED
	groups, _ := prefixGroups()
	k := len(groups)
	for _, static := range []bool{false, true} {
		p := prefixProblem(t, static)
		shared := make([]bool, p.NumUsers())
		for u := range shared {
			shared[u] = u%3 != 0
		}
		// per-group masks: equal content in fresh slices for most
		// groups, a different mask for groups 4 and 6
		distinct := make([][]bool, k)
		for g := range distinct {
			distinct[g] = append([]bool(nil), shared...)
			if g == 4 || g == 6 {
				distinct[g][g] = !distinct[g][g]
			}
		}
		same := func(mask []bool) [][]bool {
			out := make([][]bool, k)
			for g := range out {
				out[g] = mask
			}
			return out
		}
		for _, w := range []int{1, 2, 7} {
			name := fmt.Sprintf("static=%v workers=%d", static, w)
			e := NewEstimator(p, m, seed)
			e.Workers = w
			requireEstimates(t, name+" RunBatch", e.RunBatch(groups, nil), perGroupRun(p, m, seed, groups, same(nil), false))
			requireEstimates(t, name+" RunBatchPi", e.RunBatchPi(groups, shared), perGroupRun(p, m, seed, groups, same(shared), true))
			requireEstimates(t, name+" RunBatchMasked shared", e.RunBatchMasked(groups, same(shared), true), perGroupRun(p, m, seed, groups, same(shared), true))
			want := perGroupRun(p, m, seed, groups, distinct, true)
			requireEstimates(t, name+" RunBatchMasked distinct", e.RunBatchMasked(groups, distinct, true), want)

			// split sample ranges merged by the canonical fold
			grid := make([][]SampleResult, k)
			for _, r := range [][2]int{{0, 5}, {5, 6}, {6, 20}, {20, m}} {
				for g, rows := range e.RunBatchSamples(groups, nil, distinct, true, r[0], r[1]) {
					grid[g] = append(grid[g], rows...)
				}
			}
			requireEstimates(t, name+" RunBatchSamples", ReduceSampleGrid(grid, p.NumItems()), want)

			// grid cache: cold, warm, and warm for group 0 only, so the
			// owned sub-batch is rooted at another group
			for _, warm := range [][][]Seed{nil, groups, groups[:1]} {
				c := newMapGrid()
				e := NewEstimator(p, m, seed)
				e.Workers = w
				e.Grid = c
				if warm != nil {
					e.RunBatchMasked(warm, distinct[:len(warm)], true)
				}
				requireEstimates(t, fmt.Sprintf("%s grid warm=%d", name, len(warm)), e.RunBatchMasked(groups, distinct, true), want)
			}
		}
		// and against the naive simulator, independent of the engine
		e := NewEstimator(p, m, seed)
		e.Workers = 2
		got := e.RunBatchPi(groups, shared)
		for g, seeds := range groups {
			if ref := referenceEstimate(p, m, seed, seeds, shared, true); !estimatesEqual(got[g], ref) {
				t.Fatalf("static=%v group %d: engine %+v != reference %+v", static, g, got[g], ref)
			}
		}
	}
}

// TestPrefixReuseCountsLogical: SamplesDone counts every group's
// samples, shared prefix or not.
func TestPrefixReuseCountsLogical(t *testing.T) {
	p := prefixProblem(t, false)
	groups, _ := prefixGroups()
	for _, w := range []int{1, 3} {
		e := NewEstimator(p, 10, 1)
		e.Workers = w
		e.RunBatchPi(groups, nil)
		e.RunBatchSamples(groups, nil, nil, true, 2, 7)
		if got, want := e.SamplesDone(), uint64(len(groups)*(10+5)); got != want {
			t.Fatalf("workers=%d: SamplesDone = %d, want %d", w, got, want)
		}
	}
}

// TestFamilySampleAllocFree: a scheduling sample with checkpoints and
// π allocates nothing once the state's pools are warm.
func TestFamilySampleAllocFree(t *testing.T) {
	p := prefixProblem(t, false)
	groups, _ := prefixGroups()
	all := func(int) []bool { return nil }
	fams := planFamilies(groups, all, p.T)
	e := NewEstimator(p, 8, 3)
	st := NewState(p)
	master := rng.New(e.Seed)
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	var sink float64
	emit := func(_, _ int, res *Result, pi float64) { sink += res.Sigma + pi }
	i := 0
	run := func() {
		e.runFamily(st, &res, &fams[0], groups, all, true, i%e.M, master, emit)
		i++
	}
	for j := 0; j < 4*e.M; j++ {
		run()
	}
	if a := testing.AllocsPerRun(50, run); a != 0 {
		t.Fatalf("%v allocations per family sample, want 0", a)
	}
	if st.MemoryFootprint() <= NewState(p).MemoryFootprint() {
		t.Fatal("MemoryFootprint does not count checkpoint rows")
	}
}

// mapGrid is an unbounded in-memory GridCache: every miss is owned.
type mapGrid struct {
	mu   sync.Mutex
	rows map[string][]SampleResult
}

func newMapGrid() *mapGrid { return &mapGrid{rows: map[string][]SampleResult{}} }

func (c *mapGrid) Begin(seed uint64, lo, hi int, seeds []Seed, market []bool, withPi bool) ([]SampleResult, GridTicket) {
	key := fmt.Sprint(seed, lo, hi, seeds, market, withPi)
	c.mu.Lock()
	defer c.mu.Unlock()
	if rows, ok := c.rows[key]; ok {
		return rows, nil
	}
	return nil, mapTicket{c, key}
}

type mapTicket struct {
	c   *mapGrid
	key string
}

func (t mapTicket) Owned() bool { return true }

func (t mapTicket) Commit(rows []SampleResult) {
	t.c.mu.Lock()
	t.c.rows[t.key] = rows
	t.c.mu.Unlock()
}

func (t mapTicket) Abort() {}

func (t mapTicket) Wait(<-chan struct{}) ([]SampleResult, bool) { return nil, false }
