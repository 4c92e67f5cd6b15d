package shard

import (
	"fmt"
	"testing"

	"imdpp/internal/diffusion"
)

// batchCases are the batches BenchmarkShardBatch and BenchmarkLocalBatch
// time: sigma-query is one σ query (1 group × 100 samples), celf-wave
// one CELF refresh wave (8 groups × 32 samples).
var batchCases = []struct {
	name      string
	groups, m int
}{
	{"sigma-query", 1, 100},
	{"celf-wave", 8, 32},
}

// batchGroups is a case's seed groups on p: one seed each.
func batchGroups(p *diffusion.Problem, n int) [][]diffusion.Seed {
	groups := make([][]diffusion.Seed, n)
	for g := range groups {
		groups[g] = []diffusion.Seed{{User: 1 + 7*g, Item: g % p.NumItems(), T: 1}}
	}
	return groups
}

// BenchmarkShardBatch times one sharded batch per op through
// Pool.Samples, over two loopback workers of one engine goroutine each
// on the Amazon sample problem: every range's frame written, both
// replies read and folded. Per-op time is dominated by the RPC round
// trip and the dispatch skew between the two workers, not by the
// engine; BenchmarkLocalBatch is the same batch with no pool.
func BenchmarkShardBatch(b *testing.B) {
	p := sampleProblem(b, 120, 3)
	for _, bc := range batchCases {
		b.Run(bc.name, func(b *testing.B) {
			urls := make([]string, 2)
			for i := range urls {
				urls[i] = serveWorker(b, NewWorker(WorkerConfig{Workers: 1}), nil).URL
			}
			pool := NewPool(urls, nil)
			b.Cleanup(pool.Close)
			groups := batchGroups(p, bc.groups)
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

// BenchmarkLocalBatch is BenchmarkShardBatch's local twin: the same
// problem, groups and seed through diffusion.NewEstimator with no
// Remote, on 1 and 2 engine goroutines. The difference between the two
// is what a batch pays for dispatch.
func BenchmarkLocalBatch(b *testing.B) {
	p := sampleProblem(b, 120, 3)
	for _, bc := range batchCases {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", bc.name, workers), func(b *testing.B) {
				groups := batchGroups(p, bc.groups)
				est := diffusion.NewEstimator(p, bc.m, 11)
				est.Workers = workers
				est.RunBatch(groups, nil) // warms the problem's state pool
				b.ReportAllocs()
				b.ResetTimer()
				for b.Loop() {
					est.RunBatch(groups, nil)
				}
			})
		}
	}
}
