package core

import (
	"context"
	"testing"

	"imdpp/internal/cluster"
	"imdpp/internal/dataset"
	"imdpp/internal/diffusion"
)

func sampleProblem(t *testing.T, budget float64, T int) *diffusion.Problem {
	t.Helper()
	d, err := dataset.AmazonSample()
	if err != nil {
		t.Fatal(err)
	}
	return d.Clone(budget, T)
}

func quickOpts() Options {
	return Options{MC: 8, MCSI: 4, CandidateCap: 48, Seed: 7}
}

func TestSolveRejectsInvalidProblem(t *testing.T) {
	p := sampleProblem(t, 100, 2)
	bad := *p
	bad.T = 0
	if _, err := Solve(&bad, quickOpts()); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

// TestWithDefaultsKeepsClusterChoice: a zero Cluster takes
// cluster.DefaultOptions, but a partially set one keeps its Strategy
// and MinRelGap and only gains the default MaxHops.
func TestWithDefaultsKeepsClusterChoice(t *testing.T) {
	if got := (Options{}).WithDefaults().Cluster; got != cluster.DefaultOptions() {
		t.Fatalf("zero Cluster: got %+v, want %+v", got, cluster.DefaultOptions())
	}
	set := cluster.Options{Strategy: cluster.CoCluster, MinRelGap: 0.3}
	want := set
	want.MaxHops = cluster.DefaultOptions().MaxHops
	if got := (Options{Cluster: set}).WithDefaults().Cluster; got != want {
		t.Fatalf("partial Cluster: got %+v, want %+v", got, want)
	}
	full := cluster.Options{Strategy: cluster.CoCluster, MaxHops: 3}
	if got := (Options{Cluster: full}).WithDefaults().Cluster; got != full {
		t.Fatalf("full Cluster: got %+v, want %+v", got, full)
	}
}

// TestSolveWorkerInvariance: the whole solver output — not just the
// estimates — must be independent of the worker count, since the batch
// engine reduces in sample order and the CELF wave size is a constant.
func TestSolveWorkerInvariance(t *testing.T) {
	p := sampleProblem(t, 100, 2)
	var ref Solution
	for i, w := range []int{1, 3, 8} {
		opt := quickOpts()
		opt.Workers = w
		sol, err := Solve(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = sol
			continue
		}
		if sol.Sigma != ref.Sigma || len(sol.Seeds) != len(ref.Seeds) {
			t.Fatalf("workers=%d changed solve: σ %v vs %v, %d vs %d seeds",
				w, sol.Sigma, ref.Sigma, len(sol.Seeds), len(ref.Seeds))
		}
		for j := range sol.Seeds {
			if sol.Seeds[j] != ref.Seeds[j] {
				t.Fatalf("workers=%d seed %d: %+v vs %+v", w, j, sol.Seeds[j], ref.Seeds[j])
			}
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	p := sampleProblem(t, 100, 2)
	a, err := Solve(p, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(p, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Seeds) != len(b.Seeds) {
		t.Fatalf("nondeterministic: %d vs %d seeds", len(a.Seeds), len(b.Seeds))
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seed %d differs", i)
		}
	}
}

func TestSolveTimingsWithinCampaign(t *testing.T) {
	p := sampleProblem(t, 150, 4)
	sol, err := Solve(p, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sol.Seeds {
		if s.T < 1 || s.T > p.T {
			t.Fatalf("timing %d outside [1,%d]", s.T, p.T)
		}
	}
}

func TestSolveStatsPopulated(t *testing.T) {
	p := sampleProblem(t, 100, 2)
	sol, err := Solve(p, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	st := sol.Stats
	if st.SigmaEvals == 0 || st.NomineeCount == 0 || st.MarketCount == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.TotalTime <= 0 {
		t.Fatal("no total time")
	}
	if len(sol.Markets) != st.MarketCount {
		t.Fatalf("markets slice %d vs count %d", len(sol.Markets), st.MarketCount)
	}
}

func TestAblationSwitchesRun(t *testing.T) {
	p := sampleProblem(t, 100, 3)
	for _, mod := range []func(*Options){
		func(o *Options) { o.DisableTargetMarkets = true },
		func(o *Options) { o.DisableItemPriority = true },
	} {
		opt := quickOpts()
		mod(&opt)
		sol, err := Solve(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(sol.Seeds) == 0 || sol.Cost > p.Budget+1e-9 {
			t.Fatalf("ablation run degenerate: %+v", sol)
		}
	}
	// w/o TM forces a single market
	opt := quickOpts()
	opt.DisableTargetMarkets = true
	sol, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.MarketCount != 1 {
		t.Fatalf("w/o TM produced %d markets", sol.Stats.MarketCount)
	}
}

func TestOrderMetricsRun(t *testing.T) {
	p := sampleProblem(t, 100, 3)
	for _, order := range []OrderMetric{OrderAE, OrderPF, OrderSZ, OrderRMS, OrderRD} {
		opt := quickOpts()
		opt.Order = order
		sol, err := Solve(p, opt)
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		if len(sol.Seeds) == 0 {
			t.Fatalf("%v selected nothing", order)
		}
	}
}

func TestOrderMetricStrings(t *testing.T) {
	names := map[OrderMetric]string{
		OrderAE: "AE", OrderPF: "PF", OrderSZ: "SZ", OrderRMS: "RMS", OrderRD: "RD",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%d → %s", m, m.String())
		}
	}
}

func TestThetaChangesGrouping(t *testing.T) {
	p := sampleProblem(t, 150, 3)
	opt := quickOpts()
	opt.Theta = 1
	a, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Theta = 1000 // nothing overlaps by 1000 users on a 100-user graph
	b, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats.GroupCount < a.Stats.GroupCount {
		t.Fatalf("raising θ reduced groups: %d vs %d", a.Stats.GroupCount, b.Stats.GroupCount)
	}
	if b.Stats.GroupCount != b.Stats.MarketCount {
		t.Fatalf("θ=1000 still grouped markets: %d groups for %d markets",
			b.Stats.GroupCount, b.Stats.MarketCount)
	}
}

func TestSolveAdaptive(t *testing.T) {
	p := sampleProblem(t, 120, 3)
	opt := quickOpts()
	opt.CandidateCap = 24
	sol, err := SolveAdaptive(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Seeds) == 0 {
		t.Fatal("adaptive selected nothing")
	}
	if sol.Cost > p.Budget+1e-9 {
		t.Fatalf("adaptive over budget: %v", sol.Cost)
	}
	if err := p.ValidateSeeds(sol.Seeds); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveRejectsInvalidProblem(t *testing.T) {
	p := sampleProblem(t, 100, 2)
	bad := *p
	bad.T = 0
	if _, err := SolveAdaptive(&bad, quickOpts()); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestCandidateUniverseDiversity(t *testing.T) {
	p := sampleProblem(t, 150, 2)
	s := newSolver(context.Background(), p, Options{CandidateCap: 30, Seed: 1})
	u := s.candidateUniverse()
	if len(u) == 0 || len(u) > 30 {
		t.Fatalf("universe size %d", len(u))
	}
	perUser := map[int]int{}
	for _, nm := range u {
		perUser[nm.User]++
		if c := p.CostOf(nm.User, nm.Item); c > p.Budget {
			t.Fatal("unaffordable candidate")
		}
	}
	if len(perUser) < 10 {
		t.Fatalf("only %d distinct users in the universe", len(perUser))
	}
}

func TestSelectNomineesBudget(t *testing.T) {
	p := sampleProblem(t, 80, 2)
	s := newSolver(context.Background(), p, quickOpts())
	universe := s.candidateUniverse()
	selected, emax, emaxSigma, spent, err := s.selectNominees(universe, p.Budget)
	if err != nil {
		t.Fatalf("selectNominees: %v", err)
	}
	if spent > p.Budget+1e-9 {
		t.Fatalf("spent %v over budget", spent)
	}
	if len(selected) == 0 {
		t.Fatal("nothing selected")
	}
	if emax.User < 0 || emaxSigma <= 0 {
		t.Fatalf("emax not tracked: %+v σ=%v", emax, emaxSigma)
	}
}

func TestIdentifyMarkets(t *testing.T) {
	p := sampleProblem(t, 150, 2)
	s := newSolver(context.Background(), p, quickOpts())
	noms := []cluster.Nominee{{User: 0, Item: 0}, {User: 1, Item: 1}, {User: 50, Item: 2}}
	markets := s.identifyMarkets(noms)
	if len(markets) == 0 {
		t.Fatal("no markets")
	}
	total := 0
	for _, m := range markets {
		total += len(m.Nominees)
		if len(m.Users) == 0 {
			t.Fatal("market without users")
		}
		if m.Diameter < 1 {
			t.Fatalf("diameter %d", m.Diameter)
		}
		// mask must agree with the user list
		cnt := 0
		for _, v := range m.Mask {
			if v {
				cnt++
			}
		}
		if cnt != len(m.Users) {
			t.Fatalf("mask %d vs users %d", cnt, len(m.Users))
		}
		// nominee users must belong to their market
		for _, nm := range m.Nominees {
			if !m.Mask[nm.User] {
				t.Fatalf("nominee user %d outside market", nm.User)
			}
		}
	}
	if total != len(noms) {
		t.Fatalf("markets cover %d of %d nominees", total, len(noms))
	}
}

func TestGroupMarketsTheta(t *testing.T) {
	p := sampleProblem(t, 150, 2)
	s := newSolver(context.Background(), p, quickOpts())
	mkA := &Market{ID: 0, Users: []int{1, 2, 3, 4}}
	mkB := &Market{ID: 1, Users: []int{3, 4, 5, 6}}
	mkC := &Market{ID: 2, Users: []int{90, 91}}
	s.opt.Theta = 1 // A and B share 2 users > 1 → grouped
	groups := s.groupMarkets([]*Market{mkA, mkB, mkC})
	if len(groups) != 2 {
		t.Fatalf("groups: %v", groups)
	}
	s.opt.Theta = 2 // overlap of exactly 2 is no longer enough
	groups = s.groupMarkets([]*Market{mkA, mkB, mkC})
	if len(groups) != 3 {
		t.Fatalf("θ=2 groups: %v", groups)
	}
}

func TestAntagonisticExtent(t *testing.T) {
	p := sampleProblem(t, 150, 2)
	s := newSolver(context.Background(), p, quickOpts())
	// find a substitutable pair in the sample's PIN
	var x, y int = -1, -1
	for i := 0; i < p.NumItems() && x < 0; i++ {
		for _, nb := range p.PIN.Neighbors(i) {
			if _, rs := p.PIN.RelStatic(i, int(nb)); rs > 0 {
				x, y = i, int(nb)
				break
			}
		}
	}
	if x < 0 {
		t.Skip("no substitutable pair in sample")
	}
	mkA := &Market{ID: 0, Items: []int{x}}
	mkB := &Market{ID: 1, Items: []int{y}}
	group := []int{0, 1}
	markets := []*Market{mkA, mkB}
	ae := s.antagonisticExtent(markets, mkA, group)
	if ae <= 0 {
		t.Fatalf("AE of substitutable markets = %v", ae)
	}
	// a market with no substitutable rivals has AE 0
	mkC := &Market{ID: 2, Items: []int{}}
	if got := s.antagonisticExtent([]*Market{mkA, mkC}, mkC, []int{0, 1}); got != 0 {
		t.Fatalf("empty market AE %v", got)
	}
}

func TestAllocateDurations(t *testing.T) {
	markets := []*Market{
		{ID: 0, Nominees: make([]cluster.Nominee, 6)},
		{ID: 1, Nominees: make([]cluster.Nominee, 2)},
		{ID: 2, Nominees: make([]cluster.Nominee, 1)},
	}
	allocateDurations(markets, []int{0, 1, 2}, 9)
	if markets[0].Ttau != 6 || markets[1].Ttau != 2 || markets[2].Ttau != 1 {
		t.Fatalf("durations %d/%d/%d", markets[0].Ttau, markets[1].Ttau, markets[2].Ttau)
	}
	// floor of 1
	allocateDurations(markets, []int{0, 1, 2}, 2)
	for _, m := range markets {
		if m.Ttau < 1 {
			t.Fatalf("duration floor broken: %d", m.Ttau)
		}
	}
}

func TestDynamicReachabilityPrefersComplementHubs(t *testing.T) {
	p := sampleProblem(t, 150, 3)
	s := newSolver(context.Background(), p, quickOpts())
	mask := make([]bool, p.NumUsers())
	users := make([]int, 0, 20)
	for u := 0; u < 20; u++ {
		mask[u] = true
		users = append(users, u)
	}
	m := &Market{Users: users, Mask: mask, Diameter: 3}
	items := make([]int, p.NumItems())
	for i := range items {
		items[i] = i
	}
	dr := s.dynamicReachability(m, nil, items)
	if len(dr) != len(items) {
		t.Fatalf("DR for %d items", len(dr))
	}
	// an item with no PIN neighbours must have DR 0
	for _, x := range items {
		if len(p.PIN.Neighbors(x)) == 0 && dr[x] != 0 {
			t.Fatalf("isolated item %d has DR %v", x, dr[x])
		}
	}
	best := s.bestItemByDR(m, nil, items)
	for _, x := range items {
		if dr[x] > dr[best] {
			t.Fatalf("bestItemByDR missed %d (%v > %v)", x, dr[x], dr[best])
		}
	}
}

func TestMarketSharesAndRMS(t *testing.T) {
	p := sampleProblem(t, 150, 2)
	s := newSolver(context.Background(), p, quickOpts())
	shares := s.marketShares()
	total := 0
	for _, n := range shares {
		total += n
	}
	if total != p.NumUsers() {
		t.Fatalf("shares sum %d != %d users", total, p.NumUsers())
	}
	m := &Market{Items: []int{0, 1}}
	if rms := s.relativeMarketShare(m, shares); rms < 0 {
		t.Fatalf("negative RMS %v", rms)
	}
	if rms := s.relativeMarketShare(&Market{}, shares); rms != 0 {
		t.Fatalf("empty market RMS %v", rms)
	}
}
