package diffusion

import (
	"fmt"
	"math"
	"slices"
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

// restoreFull is restore without the change log: every checkpointed
// row copied back. It is the oracle of TestLogRestoreMatchesFullCopy.
func (st *State) restoreFull(c int, res *Result) {
	cp := &st.ckpts[c]
	st.rewindTo(len(cp.users))
	nm := st.p.PIN.NumMeta()
	start := int32(0)
	for j, u := range cp.users {
		copy(st.adopted[u], cp.bits[j*st.words:(j+1)*st.words])
		st.adoptList[u] = append(st.adoptList[u][:0], cp.alist[start:cp.aend[j]]...)
		start = cp.aend[j]
		copy(st.Weights(int(u)), cp.wmeta[j*nm:(j+1)*nm])
		st.prefN[u] = cp.prefN[j]
	}
	st.rngv = cp.rngv
	res.Sigma, res.MarketSigma = cp.sigma, cp.msigma
	res.Adoptions, res.Steps = cp.adoptions, cp.steps
	copy(res.PerItem, cp.perItem)
}

// TestLogRestoreMatchesFullCopy drives two states through the same
// random campaigns, in the dynamic and the Static regime: each runs a
// campaign with a checkpoint after every promotion, then restores a
// random non-increasing sequence of checkpoints (repeats included),
// each followed by a run extended by one seed, as family members do.
// One restores from the change log, the other copies every
// checkpointed row; after each restore and each run, every row field,
// the touched list, the stream and the Result must be bit-equal. It
// also requires restores whose log tail rewrote a checkpointed row, so
// the log-driven path is exercised, not bypassed.
func TestLogRestoreMatchesFullCopy(t *testing.T) {
	for _, static := range []bool{false, true} {
		p := prefixProblem(t, static)
		a, b := NewState(p), NewState(p)
		var resA, resB Result
		resA.PerItem = make([]float64, p.NumItems())
		resB.PerItem = make([]float64, p.NumItems())
		same := func(what string) {
			t.Helper()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("static=%v, %s: %s", static, what, fmt.Sprintf(format, args...))
			}
			if !slices.Equal(a.touched, b.touched) {
				fail("touched %v vs %v", a.touched, b.touched)
			}
			for u := 0; u < p.NumUsers(); u++ {
				if a.dirty[u] != b.dirty[u] || a.prefN[u] != b.prefN[u] ||
					!slices.Equal(a.adopted[u], b.adopted[u]) || !slices.Equal(a.adoptList[u], b.adoptList[u]) {
					fail("user %d: row differs", u)
				}
				for k, w := range a.Weights(u) {
					if math.Float64bits(w) != math.Float64bits(b.Weights(u)[k]) {
						fail("user %d: weighting %d %v vs %v", u, k, w, b.Weights(u)[k])
					}
				}
			}
			if a.rngv != b.rngv {
				fail("streams differ")
			}
			if math.Float64bits(resA.Sigma) != math.Float64bits(resB.Sigma) || resA.Adoptions != resB.Adoptions ||
				resA.Steps != resB.Steps || !slices.Equal(resA.PerItem, resB.PerItem) {
				fail("results %+v vs %+v", resA, resB)
			}
		}
		r := rng.New(0x5EED)
		cuts := make([]int, 0, p.T-1)
		for c := 1; c < p.T; c++ {
			cuts = append(cuts, c)
		}
		rewritten := 0
		for i := 0; i < 60; i++ {
			randSeed := func(promo int) Seed {
				return Seed{User: r.Intn(p.NumUsers()), Item: r.Intn(p.NumItems()), T: promo}
			}
			seeds := make([]Seed, 1+r.Intn(3*p.T))
			for j := range seeds {
				seeds[j] = randSeed(1 + r.Intn(p.T))
			}
			for _, st := range []*State{a, b} {
				st.Reset(rng.New(uint64(i)))
			}
			resA, resB = Result{PerItem: resA.PerItem}, Result{PerItem: resB.PerItem}
			clear(resA.PerItem)
			clear(resB.PerItem)
			a.runFrom(seeds, 0, nil, &resA, cuts)
			b.runFrom(seeds, 0, nil, &resB, cuts)
			same(fmt.Sprintf("campaign %d", i))
			c := len(cuts) - 1
			for k := 0; k < 4; k++ {
				c = r.Intn(c + 1)
				for _, u := range a.adoptLog[a.ckpts[c].logN:] {
					if j := a.touchAt[u]; a.dirty[u] && int(j) < len(a.ckpts[c].users) {
						rewritten++
						break
					}
				}
				a.restore(c, &resA)
				b.restoreFull(c, &resB)
				same(fmt.Sprintf("campaign %d restored to promotion %d", i, cuts[c]))
				extra := randSeed(cuts[c] + 1)
				a.runFrom(WithSeed(seeds, extra), cuts[c], nil, &resA, nil)
				b.runFrom(WithSeed(seeds, extra), cuts[c], nil, &resB, nil)
				same(fmt.Sprintf("campaign %d resumed from promotion %d", i, cuts[c]))
			}
		}
		t.Logf("static=%v: %d restores rewrote a checkpointed row from the log", static, rewritten)
		if rewritten == 0 {
			t.Fatalf("static=%v: no restore rewrote a checkpointed row", static)
		}
	}
}

// mapGrid is an unbounded in-memory GridCache: every miss is owned.
// Like every GridCache it copies PerItem on commit and on each hit.
type mapGrid struct {
	mu   sync.Mutex
	ests map[string]Estimate
}

func newMapGrid() *mapGrid { return &mapGrid{ests: map[string]Estimate{}} }

func (c *mapGrid) Begin(seed uint64, m int, seeds []Seed, market []bool, withPi bool) (Estimate, GridTicket) {
	key := fmt.Sprint(seed, m, seeds, market, withPi)
	c.mu.Lock()
	defer c.mu.Unlock()
	if est, ok := c.ests[key]; ok {
		est.PerItem = slices.Clone(est.PerItem)
		return est, nil
	}
	return Estimate{}, mapTicket{c, key}
}

type mapTicket struct {
	c   *mapGrid
	key string
}

func (t mapTicket) Owned() bool { return true }

func (t mapTicket) Commit(est Estimate) {
	est.PerItem = slices.Clone(est.PerItem)
	t.c.mu.Lock()
	t.c.ests[t.key] = est
	t.c.mu.Unlock()
}

func (t mapTicket) Abort() {}

func (t mapTicket) Wait(<-chan struct{}) (Estimate, bool) { return Estimate{}, false }

// TestGridCommitOwnsPerItem checks that a batch commits each group's
// estimate as it returns it, and that under the GridTicket contract
// (the cache keeps its own copy) a caller writing to its results
// cannot change what the cache serves.
func TestGridCommitOwnsPerItem(t *testing.T) {
	const m, seed = 9, 3
	p := prefixProblem(t, false)
	groups, _ := prefixGroups()
	want := perGroupRun(p, m, seed, groups, make([][]bool, len(groups)), true)
	c := newMapGrid()
	e := NewEstimator(p, m, seed)
	e.Grid = c
	got := e.RunBatchPi(groups, nil)
	requireEstimates(t, "cold", got, want)
	for g, est := range got {
		committed := c.ests[fmt.Sprint(uint64(seed), m, groups[g], []bool(nil), true)]
		requireEstimates(t, fmt.Sprintf("group %d committed", g), []Estimate{committed}, []Estimate{est})
		for j := range est.PerItem {
			est.PerItem[j] = math.NaN()
		}
	}
	requireEstimates(t, "warm after the cold results were overwritten", e.RunBatchPi(groups, nil), want)
}
