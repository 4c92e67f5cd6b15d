package diffusion

import (
	"math"
	"runtime"
	"testing"

	"imdpp/internal/graph"
	"imdpp/internal/rng"
)

// batchProblem builds a stochastic instance with live dynamics so the
// engine is exercised on the full model, not the frozen regime.
func batchProblem(t *testing.T) *Problem {
	b := graph.NewBuilder(12, true)
	r := rng.New(0xBA7C4)
	for u := 0; u < 12; u++ {
		for v := 0; v < 12; v++ {
			if u != v && r.Float64() < 0.3 {
				b.AddEdge(u, v, 0.2+0.6*r.Float64())
			}
		}
	}
	return testProblem(t, b.Build(), func(u, x int) float64 {
		return 0.2 + 0.15*float64((u+x)%5)
	}, []float64{1, 2, 0.5, 3}, 3, DefaultParams())
}

func batchGroups(p *Problem) [][]Seed {
	var groups [][]Seed
	for u := 0; u < p.NumUsers(); u++ {
		groups = append(groups, []Seed{{User: u, Item: u % p.NumItems(), T: 1 + u%p.T}})
	}
	groups = append(groups,
		nil, // empty group: σ must be 0
		[]Seed{{User: 0, Item: 0, T: 1}, {User: 3, Item: 1, T: 2}, {User: 5, Item: 2, T: 3}},
	)
	return groups
}

// referenceEstimate is a naive single-threaded re-implementation of
// the estimator contract — fresh stream Split(i) per sample, samples
// accumulated in index order — pinning the semantics independently of
// the engine.
func referenceEstimate(p *Problem, m int, seed uint64, seeds []Seed, market []bool, withPi bool) Estimate {
	master := rng.New(seed)
	st := NewState(p)
	out := Estimate{PerItem: make([]float64, p.NumItems())}
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	for i := 0; i < m; i++ {
		st.Reset(master.Split(uint64(i)))
		res.Sigma, res.MarketSigma, res.Adoptions, res.Steps = 0, 0, 0, 0
		for j := range res.PerItem {
			res.PerItem[j] = 0
		}
		st.RunCampaign(seeds, market, &res)
		out.Sigma += res.Sigma
		out.MarketSigma += res.MarketSigma
		out.Adoptions += float64(res.Adoptions)
		for j, v := range res.PerItem {
			out.PerItem[j] += v
		}
		if withPi {
			out.Pi += st.LikelihoodPi(market)
		}
	}
	inv := 1 / float64(m)
	out.Sigma *= inv
	out.MarketSigma *= inv
	out.Pi *= inv
	out.Adoptions *= inv
	for j := range out.PerItem {
		out.PerItem[j] *= inv
	}
	return out
}

// estimatesEqual compares every field bit for bit (Float64bits), so a
// signed zero or a NaN cannot pass for equal.
func estimatesEqual(a, b Estimate) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Sigma, b.Sigma) || !same(a.MarketSigma, b.MarketSigma) ||
		!same(a.Pi, b.Pi) || !same(a.Adoptions, b.Adoptions) {
		return false
	}
	if len(a.PerItem) != len(b.PerItem) {
		return false
	}
	for i := range a.PerItem {
		if !same(a.PerItem[i], b.PerItem[i]) {
			return false
		}
	}
	return true
}

// TestRunBatchMatchesRun: RunBatch must return bit-identical Estimates
// to per-group Run for the same master seed, for every worker count in
// {1, 4, GOMAXPROCS}, with and without a market mask and π. One worker
// folds each sample as it draws it; the sample grid of the same worker
// count, folded by ReduceSampleGrid, must give the same bits.
func TestRunBatchMatchesRun(t *testing.T) {
	p := batchProblem(t)
	groups := batchGroups(p)
	market := make([]bool, p.NumUsers())
	for u := range market {
		market[u] = u%2 == 0
	}
	const m, seed = 33, 42
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, masked := range []bool{false, true} {
		var mask []bool
		if masked {
			mask = market
		}
		for _, withPi := range []bool{false, true} {
			// per-group sequential Run, one worker (reference schedule)
			seq := NewEstimator(p, m, seed)
			seq.Workers = 1
			want := make([]Estimate, len(groups))
			for g, seeds := range groups {
				want[g] = func() Estimate {
					if withPi {
						return seq.Run(seeds, mask, true)
					}
					return seq.Run(seeds, mask, false)
				}()
			}
			for _, w := range workerCounts {
				e := NewEstimator(p, m, seed)
				e.Workers = w
				var got []Estimate
				if withPi {
					got = e.RunBatchPi(groups, mask)
				} else {
					got = e.RunBatch(groups, mask)
				}
				grid := ReduceSampleGrid(e.RunBatchSamples(groups, mask, nil, withPi, 0, m), p.NumItems())
				for g := range groups {
					if !estimatesEqual(got[g], want[g]) {
						t.Fatalf("masked=%v withPi=%v workers=%d group %d: batch %+v != run %+v",
							masked, withPi, w, g, got[g], want[g])
					}
					if !estimatesEqual(grid[g], want[g]) {
						t.Fatalf("masked=%v withPi=%v workers=%d group %d: folded grid %+v != run %+v",
							masked, withPi, w, g, grid[g], want[g])
					}
				}
			}
		}
	}
}

// TestRunBatchMatchesReference checks the engine against the naive
// single-threaded re-implementation, so a bug shared by Run and
// RunBatch (they use the same engine) cannot hide. It covers the
// producer's one-goroutine and pooled branches under no mask, a shared
// market mask and per-group masks.
func TestRunBatchMatchesReference(t *testing.T) {
	p := batchProblem(t)
	groups := batchGroups(p)
	market := make([]bool, p.NumUsers())
	for u := range market {
		market[u] = u%3 != 1
	}
	masks := make([][]bool, len(groups))
	for g := range masks {
		if g%3 == 0 {
			continue // nil mask
		}
		masks[g] = make([]bool, p.NumUsers())
		for u := range masks[g] {
			masks[g][u] = (u+g)%4 != 0
		}
	}
	const m, seed = 17, 7
	for _, w := range []int{1, 3} {
		e := NewEstimator(p, m, seed)
		e.Workers = w
		for _, tc := range []struct {
			name   string
			got    []Estimate
			maskOf func(int) []bool
		}{
			{"nil mask", e.RunBatchPi(groups, nil), func(int) []bool { return nil }},
			{"market mask", e.RunBatchPi(groups, market), func(int) []bool { return market }},
			{"per-group masks", e.RunBatchMasked(groups, masks, true), func(g int) []bool { return masks[g] }},
		} {
			for g, seeds := range groups {
				want := referenceEstimate(p, m, seed, seeds, tc.maskOf(g), true)
				if !estimatesEqual(tc.got[g], want) {
					t.Fatalf("workers=%d %s group %d: engine %+v != reference %+v", w, tc.name, g, tc.got[g], want)
				}
			}
		}
	}
}

// TestRunBatchMasked: per-group masks must match per-group Run with
// the same mask.
func TestRunBatchMasked(t *testing.T) {
	p := batchProblem(t)
	groups := batchGroups(p)
	masks := make([][]bool, len(groups))
	for g := range masks {
		if g%3 == 0 {
			continue // nil mask
		}
		mask := make([]bool, p.NumUsers())
		for u := range mask {
			mask[u] = (u+g)%3 != 0
		}
		masks[g] = mask
	}
	const m, seed = 21, 1234
	e := NewEstimator(p, m, seed)
	e.Workers = 4
	got := e.RunBatchMasked(groups, masks, true)
	single := NewEstimator(p, m, seed)
	single.Workers = 1
	for g, seeds := range groups {
		want := single.Run(seeds, masks[g], true)
		if !estimatesEqual(got[g], want) {
			t.Fatalf("group %d: masked batch %+v != run %+v", g, got[g], want)
		}
	}
}

// TestSigmaBatchCRN: with common random numbers, identical groups in
// one batch get identical σ, and σ matches Sigma exactly.
func TestSigmaBatchCRN(t *testing.T) {
	p := batchProblem(t)
	seeds := []Seed{{User: 1, Item: 1, T: 1}}
	e := NewEstimator(p, 25, 99)
	sigs := e.SigmaBatch([][]Seed{seeds, seeds, seeds})
	if sigs[0] != sigs[1] || sigs[1] != sigs[2] {
		t.Fatalf("CRN violated: identical groups gave %v", sigs)
	}
	if want := NewEstimator(p, 25, 99).Sigma(seeds); sigs[0] != want {
		t.Fatalf("SigmaBatch %v != Sigma %v", sigs[0], want)
	}
}

// TestRunBatchEmpty: zero groups and zero seeds are well-defined.
func TestRunBatchEmpty(t *testing.T) {
	p := batchProblem(t)
	e := NewEstimator(p, 5, 1)
	if got := e.RunBatch(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d estimates", len(got))
	}
	got := e.RunBatch([][]Seed{nil}, nil)
	if got[0].Sigma != 0 || got[0].Adoptions != 0 {
		t.Fatalf("σ(∅) = %+v", got[0])
	}
}

// TestSamplesDone: the throughput counter advances by K·M per batch.
func TestSamplesDone(t *testing.T) {
	p := batchProblem(t)
	e := NewEstimator(p, 8, 3)
	e.RunBatch(batchGroups(p)[:4], nil)
	if got := e.SamplesDone(); got != 4*8 {
		t.Fatalf("SamplesDone = %d, want 32", got)
	}
	e.Sigma(nil)
	if got := e.SamplesDone(); got != 5*8 {
		t.Fatalf("SamplesDone after Run = %d, want 40", got)
	}
}

// TestBatchEstimateSane: a quick sanity bound — σ estimates stay
// within [0, Σ_u Σ_x w_x] on the stochastic instance.
func TestBatchEstimateSane(t *testing.T) {
	p := batchProblem(t)
	maxSigma := 0.0
	for _, w := range p.Importance {
		maxSigma += w * float64(p.NumUsers())
	}
	e := NewEstimator(p, 16, 5)
	for _, est := range e.RunBatch(batchGroups(p), nil) {
		if est.Sigma < 0 || est.Sigma > maxSigma || math.IsNaN(est.Sigma) {
			t.Fatalf("σ out of bounds: %v", est.Sigma)
		}
	}
}
