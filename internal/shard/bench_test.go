package shard

import (
	"testing"

	"imdpp/internal/diffusion"
)

// BenchmarkShardBatch times one sharded batch per op through
// Pool.Samples, over two loopback workers of one engine goroutine each
// on the Amazon sample problem: every range's frame written, both
// replies read and folded. sigma-query is one σ query (1 group × 100
// samples), celf-wave one CELF refresh wave (8 groups × 32 samples).
// Per-op time is dominated by the RPC round trip and the dispatch
// skew between the two workers, not by the engine.
func BenchmarkShardBatch(b *testing.B) {
	p := sampleProblem(b, 120, 3)
	for _, bc := range []struct {
		name      string
		groups, m int
	}{
		{"sigma-query", 1, 100},
		{"celf-wave", 8, 32},
	} {
		b.Run(bc.name, func(b *testing.B) {
			urls := make([]string, 2)
			for i := range urls {
				urls[i] = serveWorker(b, NewWorker(WorkerConfig{Workers: 1}), nil).URL
			}
			pool := NewPool(urls, nil)
			b.Cleanup(pool.Close)
			groups := make([][]diffusion.Seed, bc.groups)
			for g := range groups {
				groups[g] = []diffusion.Seed{{User: 1 + 7*g, Item: g % p.NumItems(), T: 1}}
			}
			est := NewEstimator(pool, p, bc.m, 11, 1)
			est.RunBatch(groups, nil) // probes, dials and uploads
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				est.RunBatch(groups, nil)
			}
			b.StopTimer()
			if st := pool.Snapshot(); st.LocalFallbacks != 0 || st.Healthy != 2 {
				b.Fatalf("the batches did not all run on the workers: %+v", st)
			}
		})
	}
}
