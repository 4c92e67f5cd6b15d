package gridcache_test

import (
	"math"
	"testing"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/dataset"
	"imdpp/internal/diffusion"
	"imdpp/internal/gridcache"
	"imdpp/internal/service"
)

// These goldens pin the acceptance bar of DESIGN.md §10: with a grid
// cache attached, every estimate and every solve is bit-identical to
// the cache-off engine — cold (populating) and warm (served) alike.

func sampleProblem(t testing.TB) *diffusion.Problem {
	t.Helper()
	d, err := dataset.AmazonSample()
	if err != nil {
		t.Fatal(err)
	}
	return d.Clone(120, 3)
}

func newCache(t testing.TB) *gridcache.Cache {
	t.Helper()
	return gridcache.New(gridcache.Config{})
}

func requireSameEstimates(t *testing.T, label string, want, got []diffusion.Estimate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d estimates", label, len(want), len(got))
	}
	for g := range want {
		w, gg := want[g], got[g]
		same := func(name string, a, b float64) {
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: group %d %s differs: %v vs %v", label, g, name, a, b)
			}
		}
		same("sigma", w.Sigma, gg.Sigma)
		same("market_sigma", w.MarketSigma, gg.MarketSigma)
		same("pi", w.Pi, gg.Pi)
		same("adoptions", w.Adoptions, gg.Adoptions)
		if len(w.PerItem) != len(gg.PerItem) {
			t.Fatalf("%s: group %d PerItem lengths differ", label, g)
		}
		for j := range w.PerItem {
			same("per_item", w.PerItem[j], gg.PerItem[j])
		}
	}
}

func requireSameSolution(t *testing.T, label string, want, got core.Solution) {
	t.Helper()
	if math.Float64bits(want.Sigma) != math.Float64bits(got.Sigma) {
		t.Fatalf("%s: σ %v != %v", label, got.Sigma, want.Sigma)
	}
	if len(want.Seeds) != len(got.Seeds) {
		t.Fatalf("%s: %d seeds vs %d", label, len(got.Seeds), len(want.Seeds))
	}
	for i := range want.Seeds {
		if want.Seeds[i] != got.Seeds[i] {
			t.Fatalf("%s: seed %d differs: %+v vs %+v", label, i, got.Seeds[i], want.Seeds[i])
		}
	}
}

// TestCachedEstimatesBitIdentical runs every batch entry point against
// the uncached engine: a cold cached estimator (simulate + commit), a
// warm one sharing the cache (pure hits), and a third after within-T
// canonical reordering of the groups across promotions.
func TestCachedEstimatesBitIdentical(t *testing.T) {
	p := sampleProblem(t)
	groups := [][]diffusion.Seed{
		{{User: 1, Item: 0, T: 1}},
		{{User: 2, Item: 1, T: 1}, {User: 5, Item: 0, T: 2}},
		{{User: 9, Item: 2, T: 1}},
		{},
	}
	mask := make([]bool, p.NumUsers())
	for u := 0; u < p.NumUsers()/2; u++ {
		mask[u] = true
	}
	const m, seed = 13, 99
	plainEst := diffusion.NewEstimator(p, m, seed)
	plain := plainEst.RunBatch(groups, nil)
	withPi := plainEst.RunBatchPi(groups, mask)
	masked := plainEst.RunBatchMasked(groups, [][]bool{mask, nil, mask, nil}, true)

	c := newCache(t)
	cold := diffusion.NewEstimator(p, m, seed)
	cold.Grid = c.View(p)
	requireSameEstimates(t, "cold RunBatch", plain, cold.RunBatch(groups, nil))
	requireSameEstimates(t, "cold RunBatchPi", withPi, cold.RunBatchPi(groups, mask))
	requireSameEstimates(t, "cold RunBatchMasked", masked, cold.RunBatchMasked(groups, [][]bool{mask, nil, mask, nil}, true))
	if st := c.Stats(); st.Entries == 0 {
		t.Fatalf("cold pass committed nothing: %+v", st)
	}

	warm := diffusion.NewEstimator(p, m, seed)
	warm.Grid = c.View(p)
	before := c.Stats()
	requireSameEstimates(t, "warm RunBatch", plain, warm.RunBatch(groups, nil))
	requireSameEstimates(t, "warm RunBatchPi", withPi, warm.RunBatchPi(groups, mask))
	requireSameEstimates(t, "warm RunBatchMasked", masked, warm.RunBatchMasked(groups, [][]bool{mask, nil, mask, nil}, true))
	after := c.Stats()
	if after.Hits <= before.Hits {
		t.Fatalf("warm pass hit nothing: %+v → %+v", before, after)
	}
	if hits, saved := warm.GridStats(); hits == 0 || saved == 0 {
		t.Fatalf("warm estimator reports no cache-served work: hits=%d saved=%d", hits, saved)
	}
	if hits, _ := plainEst.GridStats(); hits != 0 {
		t.Fatalf("cache-less estimator reports grid hits: %d", hits)
	}

	// cross-promotion interleaving shares the warm entries (the engine
	// buckets by T, so the canonical key proves these bit-equal)
	reordered := [][]diffusion.Seed{
		groups[0],
		{{User: 5, Item: 0, T: 2}, {User: 2, Item: 1, T: 1}},
		groups[2],
		groups[3],
	}
	canon := diffusion.NewEstimator(p, m, seed)
	canon.Grid = c.View(p)
	preHits := c.Stats().Hits
	requireSameEstimates(t, "canonical reorder", plain, canon.RunBatch(reordered, nil))
	if c.Stats().Hits <= preHits {
		t.Fatal("cross-promotion reordering missed the canonical entries")
	}
}

// TestCachedSolveGolden pins cache-on == cache-off at the solver level,
// cold and warm, for both Solve and SolveAdaptive, and checks the
// solver's Stats surface the cache-served work.
func TestCachedSolveGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full solves; skipped under -short")
	}
	p := sampleProblem(t)
	opt := core.Options{MC: 8, MCSI: 4, CandidateCap: 32, Seed: 7}

	for _, tc := range []struct {
		name  string
		solve func(*diffusion.Problem, core.Options) (core.Solution, error)
	}{
		{"solve", core.Solve},
		{"adaptive", core.SolveAdaptive},
	} {
		want, err := tc.solve(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if want.Stats.GridHits != 0 || want.Stats.SamplesSaved != 0 {
			t.Fatalf("%s: cache-less solve reports grid stats: %+v", tc.name, want.Stats)
		}

		cachedOpt := opt
		cachedOpt.GridCache = newCache(t)
		cold, err := tc.solve(p, cachedOpt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSolution(t, tc.name+" cold", want, cold)

		warm, err := tc.solve(p, cachedOpt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSolution(t, tc.name+" warm", want, warm)
		if warm.Stats.GridHits == 0 || warm.Stats.SamplesSaved == 0 {
			t.Fatalf("%s warm: no cache-served work in Stats: %+v", tc.name, warm.Stats)
		}
		st := cachedOpt.GridCache.Stats()
		if st.Hits == 0 || st.SamplesSaved == 0 {
			t.Fatalf("%s: cache counters flat after a warm solve: %+v", tc.name, st)
		}
	}
}

// TestWarmSolveSpeedup is the §10 win end to end: one CELF-heavy
// solve cold against an empty shared cache (simulating and committing
// every grid), then again warm against the same cache (served from
// memory). Every solve must be bit-identical to the first, and the
// warm solve at least 1.5× faster. The fastest of several rounds on
// each side is compared, so one preempted solve (the suite shares the
// machine) cannot decide the ratio.
func TestWarmSolveSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped under -short")
	}
	d, err := dataset.Amazon(0.05)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Clone(500, 10)

	var want *core.Solution
	solve := func(label string, opt core.Options) time.Duration {
		start := time.Now()
		sol, err := core.Solve(p, opt)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = &sol
		}
		requireSameSolution(t, label, *want, sol)
		return elapsed
	}
	const rounds = 5
	cold, warm := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		opt := core.Options{MC: 8, Seed: 1, GridCache: newCache(t)}
		cold = min(cold, solve("cold", opt))
		warm = min(warm, solve("warm", opt))
	}
	speedup := cold.Seconds() / warm.Seconds()
	t.Logf("best of %d: cold %v warm %v speedup %.1f×", rounds, cold, warm, speedup)
	if speedup < 1.5 {
		t.Fatalf("warm solve only %.2f× faster than cold (want ≥1.5×): cold %v warm %v", speedup, cold, warm)
	}
}

// TestCachedSolveContentHash checks GridCache stays outside the solve
// content address — requests differing only in the cache share a key,
// which is what lets the serving layer's result cache keep working
// unchanged with the grid cache on.
func TestCachedSolveContentHash(t *testing.T) {
	p := sampleProblem(t)
	opt := core.Options{MC: 8, Seed: 7}
	withCache := opt
	withCache.GridCache = newCache(t)
	if service.HashRequest(p, opt, false) != service.HashRequest(p, withCache, false) {
		t.Fatal("GridCache leaked into the solve content hash")
	}
}
