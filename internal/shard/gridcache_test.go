package shard

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"imdpp/internal/core"
	"imdpp/internal/diffusion"
	"imdpp/internal/gridcache"
	"imdpp/internal/service"
)

// newCachedFleet is newFleet with a private grid cache per worker —
// the deployment shape of DESIGN.md §10: grids are cached where they
// are computed, never shipped warm.
func newCachedFleet(t testing.TB, n int) (*Pool, []*Worker) {
	t.Helper()
	urls := make([]string, n)
	workers := make([]*Worker, n)
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerConfig{
			Workers: 2,
			Grid: gridcache.New(gridcache.Config{
				KeyFn: func(p *diffusion.Problem) string { return service.HashProblem(p).String() },
			}),
		})
		mux := http.NewServeMux()
		w.Mount(mux)
		mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
			writeShardJSON(rw, http.StatusOK, map[string]bool{"ok": true})
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
		workers[i] = w
	}
	pool := NewPool(urls, nil)
	t.Cleanup(pool.Close)
	return pool, workers
}

// TestShardedCachedSolveGolden pins the §10 acceptance bar across the
// fleet sizes the §7 goldens use: with worker-side grid caches AND a
// coordinator-side cache on the solve, cold and warm solves stay
// bit-identical to the plain local solve under both planners. The
// warm solve's worker grid hits are asserted under the static split
// only: weighted planning re-sizes the [lo,hi) ranges as throughput
// EWMAs move, so cross-solve worker reuse is best-effort there (§10),
// as in TestShardedCachedBatchGolden.
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
		for _, weighted := range []bool{true, false} {
			label := fmt.Sprintf("shards=%d weighted=%v", shards, weighted)
			pool, workers := newCachedFleet(t, shards)
			pool.SetWeighted(weighted)
			cachedOpt := opt
			cachedOpt.Backend = Backend(pool)
			cachedOpt.GridCache = gridcache.New(gridcache.Config{
				KeyFn: func(p *diffusion.Problem) string { return service.HashProblem(p).String() },
			})

			for pass, name := range []string{"cold", "warm"} {
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
				if pass == 1 && !weighted {
					var hits uint64
					for _, w := range workers {
						if g := w.Stats().Grid; g != nil {
							hits += g.Hits
						}
					}
					if hits == 0 {
						t.Fatalf("%s warm: worker grid caches served nothing", label)
					}
				}
			}
		}
	}
}

// TestShardedCachedBatchGolden is the estimator-level variant: a warm
// sharded RunBatch against cached workers stays bit-identical and the
// repeat dispatch is answered from worker caches, visible in the
// worker /metrics counter surface (WorkerStats.Grid).
func TestShardedCachedBatchGolden(t *testing.T) {
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 13, 99
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)

	pool, workers := newCachedFleet(t, 2)
	// static split: weighted planning re-sizes ranges as throughput
	// EWMAs move, which changes the [lo,hi) key coordinates between
	// batches — grids are still reused within a batch (CELF waves) but
	// cross-batch reuse needs stable ranges (see WorkerConfig.Grid)
	pool.SetWeighted(false)
	est := NewEstimator(pool, p, m, seed, 2)
	requireSameEstimates(t, "cold", want, est.RunBatch(groups, nil))
	requireSameEstimates(t, "warm", want, est.RunBatch(groups, nil))

	var hits, lookups uint64
	for _, w := range workers {
		g := w.Stats().Grid
		if g == nil {
			t.Fatal("cached worker reports no grid stats")
		}
		hits += g.Hits
		lookups += g.Lookups
	}
	if lookups == 0 || hits == 0 {
		t.Fatalf("worker caches untouched after a repeat batch: lookups=%d hits=%d", lookups, hits)
	}
}
