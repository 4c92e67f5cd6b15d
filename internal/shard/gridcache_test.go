package shard

import (
	"fmt"
	"math"
	"testing"

	"imdpp/internal/core"
	"imdpp/internal/diffusion"
	"imdpp/internal/gridcache"
)

// shardsServed sums the estimate requests the workers have answered.
func shardsServed(workers []*Worker) uint64 {
	var n uint64
	for _, w := range workers {
		n += w.Stats().ShardsServed
	}
	return n
}

// TestShardedCachedSolveGolden pins the §10 acceptance bar across the
// fleet sizes the §7 goldens use: with a coordinator grid cache in
// front of plain workers, cold and warm solves stay bit-identical to
// the plain local solve, the cold solve reaches the fleet, and the warm
// one is served from the cache alone — no worker answers an estimate
// for it, and its Stats count the hits.
func TestShardedCachedSolveGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full solves; skipped under -short")
	}
	p := sampleProblem(t, 100, 2)
	opt := core.Options{MC: 8, MCSI: 4, CandidateCap: 32, Seed: 7}
	want, err := core.Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 7} {
		label := fmt.Sprintf("shards=%d", shards)
		pool, workers, _ := newFleet(t, shards)
		cachedOpt := opt
		cachedOpt.Backend = Backend(pool)
		cachedOpt.GridCache = gridcache.New(gridcache.Config{})

		for _, name := range []string{"cold", "warm"} {
			served := shardsServed(workers)
			got, err := core.Solve(p, cachedOpt)
			if err != nil {
				t.Fatalf("%s %s: %v", label, name, err)
			}
			if math.Float64bits(want.Sigma) != math.Float64bits(got.Sigma) {
				t.Fatalf("%s %s: σ %v != local %v", label, name, got.Sigma, want.Sigma)
			}
			if len(want.Seeds) != len(got.Seeds) {
				t.Fatalf("%s %s: %d seeds vs %d", label, name, len(got.Seeds), len(want.Seeds))
			}
			for i := range want.Seeds {
				if want.Seeds[i] != got.Seeds[i] {
					t.Fatalf("%s %s: seed %d differs: %+v vs %+v", label, name, i, got.Seeds[i], want.Seeds[i])
				}
			}
			sent := shardsServed(workers) - served
			switch {
			case name == "cold" && sent == 0:
				t.Fatalf("%s cold: no estimate reached the fleet", label)
			case name == "warm" && sent != 0:
				t.Fatalf("%s warm: %d estimate requests reached the fleet, want 0", label, sent)
			case name == "warm" && got.Stats.GridHits == 0:
				t.Fatalf("%s warm: Stats count no grid hits", label)
			}
		}
	}
}

// TestShardedCachedBatchGolden is the estimator-level variant: a
// sharded RunBatch behind a coordinator grid cache is bit-identical to
// the local engine cold and warm, and the warm batch sends no RPC —
// every group is a hit, counted by the estimator's GridStats.
func TestShardedCachedBatchGolden(t *testing.T) {
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 13, 99
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)

	pool, workers, _ := newFleet(t, 2)
	est := NewEstimator(pool, p, m, seed, 2)
	est.Grid = gridcache.New(gridcache.Config{}).View(p)
	requireSameEstimates(t, "cold", want, est.RunBatch(groups, nil))
	cold := shardsServed(workers)
	if cold == 0 {
		t.Fatal("the cold batch never reached the fleet")
	}
	hits0, saved0 := est.GridStats()
	requireSameEstimates(t, "warm", want, est.RunBatch(groups, nil))
	if n := shardsServed(workers); n != cold {
		t.Fatalf("the warm batch sent %d estimate requests, want 0", n-cold)
	}
	if hits, saved := est.GridStats(); hits-hits0 != uint64(len(groups)) || saved-saved0 != uint64(len(groups)*m) {
		t.Fatalf("warm GridStats grew by %d hits, %d samples saved; want %d and %d",
			hits-hits0, saved-saved0, len(groups), len(groups)*m)
	}
}
