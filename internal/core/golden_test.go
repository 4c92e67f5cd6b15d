package core

import (
	"math"
	"runtime"
	"testing"

	"imdpp/internal/diffusion"
)

// TestSolveGoldenBits pins a whole Dysim solve to absolute values: σ
// by bit pattern, the seed list in pick order and the logical sample
// count. Every other solve-level golden is relative (sharded vs local,
// cache on vs off, traced vs untraced), so an engine change that moves
// both sides the same way passes them all; this one does not. The
// instance schedules seeds over all five of its promotions, so TDSI's
// batches share promotion prefixes. The values were re-captured when
// association rows became subset-sampled and again when clean friends
// did, each time with the distribution gate
// (diffusion.TestEngineMatchesReference) passing on this instance and
// the plans before and after, and must not move (§3).
func TestSolveGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit patterns captured on amd64; see diffusion.TestRunBatchSigmaGolden")
	}
	p := sampleProblem(t, 300, 5)
	const (
		wantSigma   = 0x4050b0ca13652c12 // 66.76233372573941
		wantSamples = 1568
	)
	wantSeeds := []diffusion.Seed{
		{User: 23, Item: 14, T: 1}, {User: 5, Item: 0, T: 1}, {User: 32, Item: 14, T: 1},
		{User: 40, Item: 14, T: 1}, {User: 41, Item: 14, T: 1}, {User: 75, Item: 14, T: 2},
		{User: 57, Item: 14, T: 2}, {User: 85, Item: 0, T: 3}, {User: 39, Item: 14, T: 3},
		{User: 35, Item: 14, T: 3}, {User: 80, Item: 14, T: 3}, {User: 87, Item: 14, T: 3},
		{User: 71, Item: 14, T: 4}, {User: 70, Item: 14, T: 5},
	}
	for _, w := range []int{1, 2} {
		opt := quickOpts()
		opt.Workers = w
		sol, err := Solve(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(sol.Sigma); got != wantSigma {
			t.Errorf("workers=%d: σ = %v (bits %#016x), want bits %#016x", w, sol.Sigma, got, uint64(wantSigma))
		}
		if sol.Stats.SamplesSimulated != wantSamples {
			t.Errorf("workers=%d: %d samples simulated, want %d", w, sol.Stats.SamplesSimulated, wantSamples)
		}
		if len(sol.Seeds) != len(wantSeeds) {
			t.Fatalf("workers=%d: %d seeds %+v, want %d", w, len(sol.Seeds), sol.Seeds, len(wantSeeds))
		}
		for i, s := range sol.Seeds {
			if s != wantSeeds[i] {
				t.Errorf("workers=%d: seed %d = %+v, want %+v", w, i, s, wantSeeds[i])
			}
		}
	}
}
