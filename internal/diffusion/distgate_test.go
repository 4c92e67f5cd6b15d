package diffusion_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"imdpp/internal/dataset"
	"imdpp/internal/diffusion"
	"imdpp/internal/graph"
	"imdpp/internal/kg"
	"imdpp/internal/pin"
)

// This file holds the distribution gate: a two-sample check that two
// simulators of the diffusion draw σ, MarketSigma, π and PerItem from
// the same distribution. A change that moves the engine's bits (which
// draws make a sample) must pass it against the reference simulator of
// reference_test.go, on the problems of the goldens it re-captures.

// engine draws samples 0..m-1 of every group from master seed seed,
// with π over market when withPi; out[g][i] is sample i of group g.
type engine func(p *diffusion.Problem, groups [][]diffusion.Seed, market []bool, withPi bool, seed uint64, m int) [][]diffusion.SampleResult

// productionEngine is the estimator's own sample producer, drawn one
// sample at a time. A row carries its per-item counts as totals on its
// first sample, so only a one-sample range [i, i+1) shows sample i's
// own counts — the per-item statistics need them, and the samples are
// the same bits as those of one [0, m) range.
func productionEngine(p *diffusion.Problem, groups [][]diffusion.Seed, market []bool, withPi bool, seed uint64, m int) [][]diffusion.SampleResult {
	e := diffusion.NewEstimator(p, m, seed)
	out := make([][]diffusion.SampleResult, len(groups))
	for g := range out {
		out[g] = make([]diffusion.SampleResult, m)
	}
	for i := 0; i < m; i++ {
		for g, row := range e.RunBatchSamples(groups, market, nil, withPi, i, i+1) {
			out[g][i] = row[0]
		}
	}
	return out
}

// gateAlpha is the family-wise false-alarm rate of one gate run: the
// probability, for two engines with the same distribution, that some
// statistic of some group crosses the critical value.
const gateAlpha = 0.001

// gateCase is one batch the gate compares on.
type gateCase struct {
	p      *diffusion.Problem
	groups [][]diffusion.Seed
	market []bool
	withPi bool
	m      int // samples per engine and group
}

// gateReport is the outcome of one comparison: the largest |z| over
// every statistic, where it was, the critical value and the number of
// statistics tested.
type gateReport struct {
	worst float64
	where string
	crit  float64
	tests int
}

func (r gateReport) pass() bool { return r.worst <= r.crit }

func (r gateReport) String() string {
	return fmt.Sprintf("max |z| %.2f at %s; critical %.2f over %d statistics (α = %g family-wise)", r.worst, r.where, r.crit, r.tests, gateAlpha)
}

// compareEngines draws c.m samples of every group from each engine,
// from independent master seeds, and compares the means of σ,
// MarketSigma, π (when withPi), adoptions and every item's adoption
// count group by group. Each statistic gets a Welch two-sample z; the
// critical value is Bonferroni-corrected over all of them, so by the
// CLT the chance that equal distributions fail is at most alpha.
func compareEngines(c gateCase, a, b engine, seedA, seedB uint64, alpha float64) gateReport {
	ga := a(c.p, c.groups, c.market, c.withPi, seedA, c.m)
	gb := b(c.p, c.groups, c.market, c.withPi, seedB, c.m)
	items := c.p.NumItems()
	type stat struct {
		name string
		of   func(s *diffusion.SampleResult, perItem []float64) float64
	}
	stats := []stat{
		{"σ", func(s *diffusion.SampleResult, _ []float64) float64 { return s.Sigma }},
		{"MarketSigma", func(s *diffusion.SampleResult, _ []float64) float64 { return s.MarketSigma }},
		{"adoptions", func(s *diffusion.SampleResult, _ []float64) float64 { return s.Adoptions }},
	}
	if c.withPi {
		stats = append(stats, stat{"π", func(s *diffusion.SampleResult, _ []float64) float64 { return s.Pi }})
	}
	for y := 0; y < items; y++ {
		stats = append(stats, stat{fmt.Sprintf("PerItem[%d]", y), func(_ *diffusion.SampleResult, pi []float64) float64 { return pi[y] }})
	}
	rep := gateReport{tests: len(c.groups) * len(stats)}
	rep.crit = math.Sqrt2 * math.Erfinv(1-alpha/float64(rep.tests))
	perItem := make([]float64, items)
	moments := func(rows []diffusion.SampleResult, st stat) (mean, varOfMean float64) {
		var sum, sq float64
		for i := range rows {
			clear(perItem)
			for k, y := range rows[i].Items {
				perItem[y] = rows[i].Counts[k]
			}
			v := st.of(&rows[i], perItem)
			sum += v
			sq += v * v
		}
		n := float64(len(rows))
		mean = sum / n
		return mean, math.Max(0, sq/n-mean*mean) / (n - 1)
	}
	for g := range c.groups {
		for _, st := range stats {
			ma, va := moments(ga[g], st)
			mb, vb := moments(gb[g], st)
			var z float64
			switch {
			case va+vb > 0:
				z = math.Abs(ma-mb) / math.Sqrt(va+vb)
			case ma != mb:
				z = math.Inf(1)
			}
			if z > rep.worst || rep.where == "" {
				rep.worst = z
				rep.where = fmt.Sprintf("group %d %s (%.4g vs %.4g)", g, st.name, ma, mb)
			}
		}
	}
	return rep
}

// AssertSameDistribution fails t unless engines a and b pass the gate
// on c at gateAlpha. The two engines draw from unrelated master seeds.
func AssertSameDistribution(t testing.TB, c gateCase, a, b engine) {
	t.Helper()
	rep := compareEngines(c, a, b, 0xD15C, 0x7A7E, gateAlpha)
	if !rep.pass() {
		t.Errorf("distributions differ: %v", rep)
		return
	}
	t.Logf("same distribution: %v", rep)
}

// goldenGroups are the seed groups of the absolute goldens
// (TestRunBatchSigmaGolden, TestRunBatchSigmaGoldenStatic,
// TestRunBatchPiGolden).
var goldenGroups = [][]diffusion.Seed{
	{{User: 0, Item: 0, T: 1}},
	{{User: 1, Item: 2, T: 1}, {User: 5, Item: 1, T: 2}, {User: 9, Item: 3, T: 3}},
	{{User: 3, Item: 3, T: 2}, {User: 3, Item: 0, T: 1}},
}

// goldenMarket is TestRunBatchPiGolden's market mask.
func goldenMarket(n int) []bool {
	market := make([]bool, n)
	for u := range market {
		market[u] = u%3 != 1
	}
	return market
}

// solveGoldenPlans are seed groups on core.TestSolveGoldenBits'
// instance: the plans the solve picks before the association rows'
// subset sampler, with it, and with the clean friends' samplers too,
// and one group seeding two items over three promotions.
var solveGoldenPlans = [][]diffusion.Seed{
	{
		{User: 40, Item: 14, T: 1}, {User: 41, Item: 14, T: 1}, {User: 35, Item: 14, T: 1},
		{User: 87, Item: 14, T: 2}, {User: 32, Item: 14, T: 2}, {User: 39, Item: 14, T: 2},
		{User: 23, Item: 14, T: 2}, {User: 8, Item: 14, T: 2}, {User: 4, Item: 14, T: 2},
		{User: 86, Item: 14, T: 2}, {User: 75, Item: 14, T: 3}, {User: 70, Item: 14, T: 3},
		{User: 66, Item: 14, T: 3}, {User: 80, Item: 14, T: 4},
	},
	{
		{User: 75, Item: 14, T: 1}, {User: 41, Item: 14, T: 1}, {User: 87, Item: 14, T: 1},
		{User: 9, Item: 14, T: 2}, {User: 32, Item: 14, T: 2}, {User: 64, Item: 14, T: 2},
		{User: 6, Item: 14, T: 2}, {User: 74, Item: 0, T: 2}, {User: 35, Item: 14, T: 3},
		{User: 39, Item: 14, T: 3}, {User: 23, Item: 14, T: 3}, {User: 55, Item: 14, T: 3},
		{User: 79, Item: 14, T: 3}, {User: 34, Item: 4, T: 4},
	},
	{
		{User: 23, Item: 14, T: 1}, {User: 5, Item: 0, T: 1}, {User: 32, Item: 14, T: 1},
		{User: 40, Item: 14, T: 1}, {User: 41, Item: 14, T: 1}, {User: 75, Item: 14, T: 2},
		{User: 57, Item: 14, T: 2}, {User: 85, Item: 0, T: 3}, {User: 39, Item: 14, T: 3},
		{User: 35, Item: 14, T: 3}, {User: 80, Item: 14, T: 3}, {User: 87, Item: 14, T: 3},
		{User: 71, Item: 14, T: 4}, {User: 70, Item: 14, T: 5},
	},
	{{User: 1, Item: 3, T: 1}, {User: 2, Item: 7, T: 1}, {User: 5, Item: 3, T: 2}, {User: 9, Item: 11, T: 3}},
}

func solveGoldenProblem(t testing.TB) *diffusion.Problem {
	t.Helper()
	d, err := dataset.AmazonSample()
	if err != nil {
		t.Fatal(err)
	}
	return d.Clone(300, 5)
}

func static(p *diffusion.Problem) *diffusion.Problem {
	q := *p
	q.Params.Static = true
	return &q
}

// TestEngineMatchesReference is the distribution gate between the
// engine and the reference simulator, on the instances of every
// absolute golden (diffusion's σ and π goldens and
// core.TestSolveGoldenBits) and on the exact-σ check's tiny instance,
// in the dynamic and the Static regime, and on the golden instance with
// base preferences outside [0,1], which clean and dirty users must
// clamp alike.
func TestEngineMatchesReference(t *testing.T) {
	golden := diffusion.GoldenProblem(t)
	lt := *golden
	lt.Params.AIS = diffusion.AISLinearThreshold
	clamped := diffusion.ClampedProblem(t)
	solve := solveGoldenProblem(t)
	tiny := tinyProblem(t)
	cases := []struct {
		name string
		c    gateCase
	}{
		{"golden", gateCase{p: golden, groups: goldenGroups, market: goldenMarket(golden.NumUsers()), withPi: true, m: 8000}},
		{"golden-static", gateCase{p: static(golden), groups: goldenGroups, withPi: true, m: 8000}},
		{"golden-lt", gateCase{p: &lt, groups: goldenGroups, market: goldenMarket(lt.NumUsers()), withPi: true, m: 4000}},
		{"clamped", gateCase{p: clamped, groups: goldenGroups, market: goldenMarket(clamped.NumUsers()), withPi: true, m: 4000}},
		{"solve", gateCase{p: solve, groups: solveGoldenPlans, withPi: true, m: 4000}},
		{"solve-static", gateCase{p: static(solve), groups: solveGoldenPlans, withPi: true, m: 4000}},
		{"tiny", gateCase{p: tiny, groups: tinyGroups, withPi: true, m: 20000}},
		{"tiny-static", gateCase{p: static(tiny), groups: tinyGroups, withPi: true, m: 20000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.c.p.NumUsers() > 60 {
				t.Skip("larger instance; skipped under -short")
			}
			AssertSameDistribution(t, tc.c, productionEngine, referenceEngine)
		})
	}
}

// TestEngineMatchesReferenceRandom is the gate on random small
// problems: generated social graphs, knowledge graphs and preferences
// over 30 users and 8 items, directed and undirected, with random seed
// groups over three promotions, in both regimes.
func TestEngineMatchesReferenceRandom(t *testing.T) {
	for s := uint64(1); s <= 4; s++ {
		d, err := dataset.Generate(dataset.Spec{
			Name: "random", Users: 30, Items: 8, Directed: s%2 == 0,
			AttachM: 3, AvgInfluence: 0.3,
			Features: 6, Brands: 2, Categories: 2, Extended: s%2 == 1, Ecosystems: 2,
			AvgImportance: 1.5, Params: diffusion.DefaultParams(), Seed: s,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := d.Clone(1e9, 3)
		r := rand.New(rand.NewPCG(s, 0x6A7E))
		groups := make([][]diffusion.Seed, 3)
		for g := range groups {
			for k := 1 + r.IntN(4); k > 0; k-- {
				groups[g] = append(groups[g], diffusion.Seed{User: r.IntN(p.NumUsers()), Item: r.IntN(p.NumItems()), T: 1 + r.IntN(p.T)})
			}
		}
		for _, q := range []*diffusion.Problem{p, static(p)} {
			t.Run(fmt.Sprintf("seed%d/static=%v", s, q.Params.Static), func(t *testing.T) {
				AssertSameDistribution(t, gateCase{p: q, groups: groups, withPi: true, m: 2000}, productionEngine, referenceEngine)
			})
		}
	}
}

// TestGateFalseAlarmRate runs the gate 100 times between the engine
// and itself on unrelated seeds, where every failure is a false alarm,
// at gateAlpha and at two looser levels that show the calibration.
// Bonferroni over correlated statistics is conservative, so each count
// must stay within the binomial tail of its level.
func TestGateFalseAlarmRate(t *testing.T) {
	if testing.Short() {
		t.Skip("100 gate runs; skipped under -short")
	}
	const runs = 100
	c := gateCase{p: diffusion.GoldenProblem(t), groups: goldenGroups, withPi: true, m: 400}
	levels := []struct {
		alpha float64
		max   int // P(Binomial(runs, alpha) > max) < 0.001
	}{{gateAlpha, 2}, {0.05, 13}, {0.2, 33}}
	alarms := make([]int, len(levels))
	for i := 0; i < runs; i++ {
		rep := compareEngines(c, productionEngine, productionEngine, uint64(2*i+1), uint64(2*i+2), gateAlpha)
		for l, lv := range levels {
			crit := math.Sqrt2 * math.Erfinv(1-lv.alpha/float64(rep.tests))
			if rep.worst > crit {
				alarms[l]++
			}
		}
	}
	for l, lv := range levels {
		t.Logf("α = %g: %d false alarms in %d same-engine runs", lv.alpha, alarms[l], runs)
		if alarms[l] > lv.max {
			t.Errorf("α = %g: %d false alarms in %d runs, want at most %d", lv.alpha, alarms[l], runs, lv.max)
		}
	}
}

// tinyProblem is a three-user, three-item instance small enough for
// exactSigma: arcs 0→1, 0→2 and 1→2; items 0 and 1 share one
// feature, items 0 and 2 two, and items 1 and 2 a category. So item
// 0's association row has two entries of unequal rC, the larger one
// last, and the rows of items 1 and 2 each hold an entry with rC = 0.
// χ = 1 keeps associations frequent while q = χ·Pact·Ppref·max rC
// mostly stays below ½, the subset-sampled regime.
func tinyProblem(t testing.TB) *diffusion.Problem {
	t.Helper()
	b := kg.NewBuilder()
	tItem := b.NodeTypeID("ITEM")
	tFeature := b.NodeTypeID("FEATURE")
	tCategory := b.NodeTypeID("CATEGORY")
	eSup := b.EdgeTypeID("SUPPORTS")
	eCat := b.EdgeTypeID("IN_CATEGORY")
	items := []int{b.AddNode(tItem), b.AddNode(tItem), b.AddNode(tItem)}
	f1, f2, f3 := b.AddNode(tFeature), b.AddNode(tFeature), b.AddNode(tFeature)
	cat := b.AddNode(tCategory)
	b.AddEdge(items[0], f1, eSup)
	b.AddEdge(items[1], f1, eSup)
	b.AddEdge(items[0], f2, eSup)
	b.AddEdge(items[2], f2, eSup)
	b.AddEdge(items[0], f3, eSup)
	b.AddEdge(items[2], f3, eSup)
	b.AddEdge(items[1], cat, eCat)
	b.AddEdge(items[2], cat, eCat)
	kgraph := b.Build()
	model, err := pin.NewModel(kgraph,
		[]*kg.MetaGraph{kg.PathMetaGraph("c", kg.Complementary, tItem, tFeature, eSup, eSup)},
		[]*kg.MetaGraph{kg.PathMetaGraph("s", kg.Substitutable, tItem, tCategory, eCat, eCat)},
		[]float64{0.9, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	gb := graph.NewBuilder(3, true)
	gb.AddEdge(0, 1, 0.6)
	gb.AddEdge(0, 2, 0.5)
	gb.AddEdge(1, 2, 0.7)
	g := gb.Build()
	pref := []float64{
		0.5, 0.4, 0.3,
		0.7, 0.5, 0.6,
		0.6, 0.7, 0.5,
	}
	cost := make([]float64, len(pref))
	for i := range cost {
		cost[i] = 1
	}
	par := diffusion.DefaultParams()
	par.Chi = 1
	p := &diffusion.Problem{
		Substrate: &diffusion.Substrate{
			G: g, KG: kgraph, PIN: model,
			Importance: []float64{1, 2.5, 4},
			BasePref:   diffusion.MatrixFrom(pref, 3), Cost: diffusion.MatrixFrom(cost, 3),
		},
		Budget: 10, T: 2, Params: par,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// tinyGroups are the tiny instance's seed groups: one seed, and a
// two-promotion campaign that re-seeds an item.
var tinyGroups = [][]diffusion.Seed{
	{{User: 0, Item: 0, T: 1}},
	{{User: 0, Item: 0, T: 1}, {User: 1, Item: 1, T: 2}, {User: 0, Item: 0, T: 2}},
}

// tinyStarProblem is a four-user, two-item instance small enough for
// exactSigma, built so a dirty friend precedes two clean ones on one
// out-list: user 0's arcs 0→1, 0→2 and 0→3, in that order, and no
// other arc. Items 0 and 1 share a feature, so each is the other's
// one association entry. Seeding user 1 with item 1 and user 0 with
// item 0 in the same promotion (tinyStarGroup) dirties friend 1
// before user 0 promotes item 0, so that promotion visits a dirty
// friend, then two clean ones. p̄ = 0.56 (friend 2's W·P0) makes
// landings frequent, so a clean-target sampler that counts a dirty
// friend as a trial, shifting a landing due on friend 1 to friend 2,
// moves σ far outside the sweep's bounds.
func tinyStarProblem(t testing.TB) *diffusion.Problem {
	t.Helper()
	b := kg.NewBuilder()
	tItem := b.NodeTypeID("ITEM")
	tFeature := b.NodeTypeID("FEATURE")
	eSup := b.EdgeTypeID("SUPPORTS")
	i0, i1, f := b.AddNode(tItem), b.AddNode(tItem), b.AddNode(tFeature)
	b.AddEdge(i0, f, eSup)
	b.AddEdge(i1, f, eSup)
	kgraph := b.Build()
	model, err := pin.NewModel(kgraph,
		[]*kg.MetaGraph{kg.PathMetaGraph("c", kg.Complementary, tItem, tFeature, eSup, eSup)},
		nil, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	gb := graph.NewBuilder(4, true)
	gb.AddEdge(0, 1, 0.9)
	gb.AddEdge(0, 2, 0.8)
	gb.AddEdge(0, 3, 0.6)
	pref := []float64{
		0.5, 0.5,
		0.6, 0.4,
		0.7, 0.3,
		0.5, 0.6,
	}
	cost := make([]float64, len(pref))
	for i := range cost {
		cost[i] = 1
	}
	par := diffusion.DefaultParams()
	par.Chi = 1
	p := &diffusion.Problem{
		Substrate: &diffusion.Substrate{
			G: gb.Build(), KG: kgraph, PIN: model,
			Importance: []float64{1, 2},
			BasePref:   diffusion.MatrixFrom(pref, 2), Cost: diffusion.MatrixFrom(cost, 2),
		},
		Budget: 10, T: 1, Params: par,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// tinyStarGroup dirties friend 1 with item 1 at ζ = 0, beside user 0's
// item 0 seed, so step 1's promotion of item 0 meets it first.
var tinyStarGroup = []diffusion.Seed{{User: 1, Item: 1, T: 1}, {User: 0, Item: 0, T: 1}}

// TestExactSigmaTiny enumerates every coin outcome of the reference
// campaign on the tiny instances and checks the engine's Monte-Carlo σ
// against the exact value over a seed sweep, in both regimes: each
// estimate within 4.5 standard errors (Bonferroni over the sweep at
// about 1e-4), and the pooled mean of the sweep within 4.
func TestExactSigmaTiny(t *testing.T) {
	const (
		seeds = 20
		m     = 2000
	)
	cases := []struct {
		name   string
		p      *diffusion.Problem
		groups [][]diffusion.Seed
	}{
		{"tiny", tinyProblem(t), tinyGroups},
		{"tiny", static(tinyProblem(t)), tinyGroups},
		{"star", tinyStarProblem(t), [][]diffusion.Seed{tinyStarGroup}},
		{"star", static(tinyStarProblem(t)), [][]diffusion.Seed{tinyStarGroup}},
	}
	for _, c := range cases {
		p := c.p
		for gi, group := range c.groups {
			name := fmt.Sprintf("%s/static=%v/group%d", c.name, p.Params.Static, gi)
			mean, second, leaves, mass := exactSigma(p, group)
			if math.Abs(mass-1) > 1e-9 {
				t.Fatalf("%s: enumerated probability mass %v, want 1", name, mass)
			}
			sd := math.Sqrt(second - mean*mean)
			pooled := 0.0
			for s := uint64(1); s <= seeds; s++ {
				got := diffusion.NewEstimator(p, m, s).Sigma(group)
				pooled += got / seeds
				if z := math.Abs(got-mean) / (sd / math.Sqrt(m)); z > 4.5 {
					t.Errorf("%s seed %d: MC σ %v vs exact %v: %.2f standard errors", name, s, got, mean, z)
				}
			}
			z := math.Abs(pooled-mean) / (sd / math.Sqrt(m*seeds))
			t.Logf("%s: exact σ %.6f (sd %.4f, %d realisations); pooled MC %.6f, %.2f standard errors", name, mean, sd, leaves, pooled, z)
			if z > 4 {
				t.Errorf("%s: pooled MC σ %v vs exact %v: %.2f standard errors", name, pooled, mean, z)
			}
		}
	}
}
