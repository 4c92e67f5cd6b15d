package diffusion

import (
	"testing"

	"imdpp/internal/graph"
	"imdpp/internal/kg"
	"imdpp/internal/pin"
	"imdpp/internal/rng"
)

// benchProblem builds a workload-shaped instance: a heavy-tailed
// social graph over users and a catalogue of items with feature-pair
// complements and 8-item category substitute pools. Unlike the 4-item
// testProblem, the item count here is large enough that dense
// per-worker |V|×|I| state would dominate memory.
func benchProblem(tb testing.TB, users, items int) *Problem {
	tb.Helper()
	b := kg.NewBuilder()
	tItem := b.NodeTypeID("ITEM")
	tFeature := b.NodeTypeID("FEATURE")
	tCategory := b.NodeTypeID("CATEGORY")
	eSup := b.EdgeTypeID("SUPPORTS")
	eCat := b.EdgeTypeID("IN_CATEGORY")
	ids := make([]int, items)
	for i := range ids {
		ids[i] = b.AddNode(tItem)
	}
	for i := 0; i+1 < items; i += 2 {
		f := b.AddNode(tFeature)
		b.AddEdge(ids[i], f, eSup)
		b.AddEdge(ids[i+1], f, eSup)
	}
	for c := 0; c*8 < items; c++ {
		cat := b.AddNode(tCategory)
		for j := c * 8; j < (c+1)*8 && j < items; j++ {
			b.AddEdge(ids[j], cat, eCat)
		}
	}
	kgraph := b.Build()
	model, err := pin.NewModel(kgraph,
		[]*kg.MetaGraph{kg.PathMetaGraph("c", kg.Complementary, tItem, tFeature, eSup, eSup)},
		[]*kg.MetaGraph{kg.PathMetaGraph("s", kg.Substitutable, tItem, tCategory, eCat, eCat)},
		[]float64{0.5, 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(11)
	g := graph.BarabasiAlbert(users, 3, false, graph.WeightModel{Mean: 0.15, Jitter: 0.5}, r)
	imp := make([]float64, items)
	for i := range imp {
		imp[i] = 1
	}
	basePref := NewMatrix(users, items)
	cost := NewMatrix(users, items)
	for u := 0; u < users; u++ {
		pr := basePref.Row(u)
		cr := cost.Row(u)
		for x := 0; x < items; x++ {
			pr[x] = 0.05 + 0.01*float64((u*7+x*13)%30)
			cr[x] = 1
		}
	}
	p := &Problem{
		G: g, KG: kgraph, PIN: model,
		Importance: imp, BasePref: basePref, Cost: cost,
		Budget: 1e9, T: 3, Params: DefaultParams(),
	}
	if err := p.Validate(); err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkRunCampaign measures the diffusion hot path — one full
// T-promotion campaign per iteration on a reused state, the unit of
// work every Monte-Carlo sample pays. Allocations per op should be ~0:
// steady-state sampling runs entirely out of the state's row pools.
func BenchmarkRunCampaign(b *testing.B) {
	p := benchProblem(b, 2000, 256)
	seeds := []Seed{
		{User: 0, Item: 0, T: 1},
		{User: 1, Item: 2, T: 1},
		{User: 5, Item: 1, T: 2},
		{User: 9, Item: 3, T: 3},
	}
	st := NewState(p)
	master := rng.New(7)
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.resetSplit(master, i)
		res.Sigma, res.MarketSigma, res.Adoptions, res.Steps = 0, 0, 0, 0
		st.RunCampaign(seeds, nil, &res)
	}
	b.StopTimer()
	b.ReportMetric(float64(st.MemoryFootprint()), "state-bytes")
}

// BenchmarkRunCampaignSelect measures the campaign a CELF refresh
// wave simulates: about 40 seeds, all at promotion 1, under dynamic
// parameters over T = 10 promotions. Most of its adopters take one
// item, which is the case the single-adoption shortcuts serve
// (DESIGN.md §3). One op is one sample; the loop cycles over 16
// warmed sample streams, so allocations per op must be 0.
func BenchmarkRunCampaignSelect(b *testing.B) {
	p := benchProblem(b, 2000, 256)
	p.T = 10
	var seeds []Seed
	for j := 0; j < 40; j++ {
		u := 47 * j
		seeds = append(seeds, Seed{User: u, Item: (u * 7) % 256, T: 1})
	}
	const samples = 16
	st := NewState(p)
	master := rng.New(7)
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	run := func(i int) {
		st.resetSplit(master, i%samples)
		res.Sigma, res.MarketSigma, res.Adoptions, res.Steps = 0, 0, 0, 0
		st.RunCampaign(seeds, nil, &res)
	}
	for i := 0; i < samples; i++ {
		run(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(st.MemoryFootprint()), "state-bytes")
}

// BenchmarkRunBatchPiSchedule measures what prefix reuse buys a TDSI
// scheduling batch (DESIGN.md §3): group 0 is a schedule over
// promotions 1..3 and each of 16 candidates adds one seed at promotion
// 4, all under one market mask with π. One op is one sample of that
// batch — the root's campaign from Reset plus 16 candidates resumed
// from its checkpoint, with π for each — through the family kernel
// the engine's one producer calls. Allocations per op must be 0: checkpoints,
// π scratch and rows all come from the state's pools.
func BenchmarkRunBatchPiSchedule(b *testing.B) {
	p := benchProblem(b, 2000, 256)
	p.T = 5
	var schedule []Seed
	for t := 1; t <= 3; t++ {
		for j := 0; j < 4; j++ {
			u := 97*t + 31*j
			schedule = append(schedule, Seed{User: u, Item: (u * 7) % 256, T: t})
		}
	}
	groups := [][]Seed{schedule}
	for c := 0; c < 16; c++ {
		groups = append(groups, WithSeed(schedule, Seed{User: 1000 + 13*c, Item: (c * 11) % 256, T: 4}))
	}
	market := make([]bool, p.NumUsers())
	for u := range market {
		market[u] = u%4 != 0
	}
	maskOf := func(int) []bool { return market }
	fams := planFamilies(groups, maskOf, p.T)
	if len(fams) != 1 {
		b.Fatalf("%d families, want one: the candidates must share the schedule", len(fams))
	}
	e := NewEstimator(p, 16, 7)
	st := NewState(p)
	master := rng.New(e.Seed)
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	var sink float64
	emit := func(_, _ int, res *Result, pi float64) { sink += res.Sigma + pi }
	// warm the pools on every sample the loop cycles through
	for i := 0; i < e.M; i++ {
		e.runFamily(st, &res, &fams[0], groups, maskOf, true, i, master, emit)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.runFamily(st, &res, &fams[0], groups, maskOf, true, i%e.M, master, emit)
	}
	b.StopTimer()
	b.ReportMetric(float64(st.MemoryFootprint()), "state-bytes")
}

// BenchmarkNewStateSparse measures what one worker pays to materialise
// a fresh State under the sparse layout: O(|V|) headers, no |V|×|I|
// payload.
func BenchmarkNewStateSparse(b *testing.B) {
	p := benchProblem(b, 2000, 256)
	b.ReportAllocs()
	b.ResetTimer()
	var st *State
	for i := 0; i < b.N; i++ {
		st = NewState(p)
	}
	b.StopTimer()
	b.ReportMetric(float64(st.MemoryFootprint()), "state-bytes")
}

// BenchmarkNewStateDenseBaseline allocates the seed layout's dense
// per-worker arrays — a |V|×|I| float64 preference-delta table and a
// |V|×⌈|I|/64⌉ adoption bitset — as the contrast baseline for
// BenchmarkNewStateSparse, whose State keeps neither: adoption rows
// are allocated per dirtied user, and the preference delta is summed
// on demand from one int32 per user (DESIGN.md §5). Kept as a
// reference so the alloc gap stays visible in bench output.
func BenchmarkNewStateDenseBaseline(b *testing.B) {
	p := benchProblem(b, 2000, 256)
	n, items := p.NumUsers(), p.NumItems()
	words := (items + 63) / 64
	b.ReportAllocs()
	b.ResetTimer()
	var prefDelta []float64
	var adopted []uint64
	for i := 0; i < b.N; i++ {
		prefDelta = make([]float64, n*items)
		adopted = make([]uint64, n*words)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(prefDelta)*8+len(adopted)*8), "state-bytes")
}

// BenchmarkPref measures one Ppref(u, y) read, y cycling over every
// item, for the three kinds of user the engine meets: a clean user
// (base preference only), a user with one adoption (its Δpref from the
// cached init relevance) and a user with three adoptions whose
// weightings have moved (Δpref re-evaluated under them).
func BenchmarkPref(b *testing.B) {
	p := benchProblem(b, 2000, 256)
	items := p.NumItems()
	for _, bc := range []struct {
		name  string
		items []int
	}{
		{"clean", nil},
		{"one-adoption", []int{0}},
		{"three-adoptions-moved", []int{0, 1, 2}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st := NewState(p)
			st.Reset(rng.New(1))
			const u = 3
			for _, x := range bc.items {
				st.ForceAdopt(u, x)
			}
			moved := false
			for m, w := range st.Weights(u) {
				moved = moved || w != p.PIN.InitWeights[m]
			}
			if moved != (len(bc.items) > 1) {
				b.Fatalf("%d adoptions: weightings moved = %v", len(bc.items), moved)
			}
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += st.Pref(u, i%items)
			}
			b.StopTimer()
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}
}
