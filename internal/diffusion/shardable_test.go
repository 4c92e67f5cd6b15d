package diffusion

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"imdpp/internal/graph"
	"imdpp/internal/rng"
)

// TestRunBatchSamplesAllocs pins the producer's allocation cost,
// which keeps the uncached path as cheap as folding in place: one row
// per group plus that row's item totals in two exact-size arrays on its
// first sample — a bound that does not grow with the sample count.
func TestRunBatchSamplesAllocs(t *testing.T) {
	p := batchProblem(t)
	var groups [][]Seed
	for u := 0; u < p.NumUsers(); u += 3 {
		var g []Seed
		for x := 0; x < p.NumItems(); x++ {
			g = append(g, Seed{User: (u + x) % p.NumUsers(), Item: x, T: 1 + x%p.T})
		}
		groups = append(groups, g)
	}
	const overhead = 16
	limit := float64(3*len(groups) + overhead)
	for _, m := range []int{32, 128} {
		e := NewEstimator(p, m, 9)
		e.Workers = 1
		run := func() { e.RunBatchSamples(groups, nil, nil, true, 0, m) }
		run() // warm the state pool
		for g, row := range e.RunBatchSamples(groups, nil, nil, true, 0, m) {
			if len(row[0].Items) == 0 {
				t.Fatalf("M=%d: group %d carries no item totals: cascades too small to count their allocations", m, g)
			}
			for i := 1; i < m; i++ {
				if row[i].Items != nil || row[i].Counts != nil {
					t.Fatalf("M=%d: group %d sample %d carries item entries; only a row's first sample may", m, g, i)
				}
			}
		}
		a := testing.AllocsPerRun(5, run)
		if a > limit {
			t.Fatalf("M=%d: %v allocations for %d groups, want ≤ %v", m, a, len(groups), limit)
		}
		t.Logf("M=%d: %v allocations for %d groups", m, a, len(groups))
	}
}

// TestValidateSampleRow: the row check accepts what the producer makes
// and rejects every shape the fold cannot take.
func TestValidateSampleRow(t *testing.T) {
	p := batchProblem(t)
	e := NewEstimator(p, 8, 5)
	row := e.RunBatchSamples(batchGroups(p)[:1], nil, nil, true, 2, 7)[0]
	if err := ValidateSampleRow(row, 5, p.NumItems()); err != nil {
		t.Fatalf("producer row rejected: %v", err)
	}
	ok := SampleResult{Items: []int32{0, 3}, Counts: []float64{1, 2}}
	for _, tc := range []struct {
		name string
		row  []SampleResult
	}{
		{"short", []SampleResult{ok}},
		{"long", []SampleResult{ok, ok, ok}},
		{"items without counts", []SampleResult{ok, {Items: []int32{1}}}},
		{"counts without items", []SampleResult{ok, {Counts: []float64{1}}}},
		{"negative item", []SampleResult{ok, {Items: []int32{-1}, Counts: []float64{1}}}},
		{"item past the end", []SampleResult{ok, {Items: []int32{4}, Counts: []float64{1}}}},
		{"negative count", []SampleResult{ok, {Items: []int32{1}, Counts: []float64{-1}}}},
		{"fractional count", []SampleResult{ok, {Items: []int32{1}, Counts: []float64{0.5}}}},
		{"NaN count", []SampleResult{ok, {Items: []int32{1}, Counts: []float64{math.NaN()}}}},
		{"infinite count", []SampleResult{ok, {Items: []int32{1}, Counts: []float64{math.Inf(1)}}}},
		{"count past 2^53", []SampleResult{ok, {Items: []int32{1}, Counts: []float64{1<<53 + 2}}}},
	} {
		if err := ValidateSampleRow(tc.row, 2, 4); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	for _, row := range [][]SampleResult{
		{ok, {}},
		{{Items: []int32{0, 3}, Counts: []float64{0, 1 << 53}}, {}},
	} {
		if err := ValidateSampleRow(row, 2, 4); err != nil {
			t.Fatalf("valid row %+v rejected: %v", row, err)
		}
	}
}

// TestRowTotalsPartitionInvariant pins the row-total merge contract
// (DESIGN.md §7) on random problems and batches: a row's item totals
// sit on its first sample and equal the sum of its one-sample ranges'
// counts, and folding [0,M) gives the same bits as folding the grid
// assembled from a random partition of [0,M) into 1–7 contiguous
// ranges, as the shard coordinator assembles it.
func TestRowTotalsPartitionInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for trial := 0; trial < 6; trial++ {
		gr := rng.New(uint64(trial) + 1)
		g := graph.BarabasiAlbert(30+r.Intn(30), 2+r.Intn(2), r.Intn(2) == 0, graph.WeightModel{Mean: 0.3, Jitter: 0.4}, gr)
		salt := r.Intn(1000)
		params := DefaultParams()
		params.Static = trial%2 == 1
		T := 1 + r.Intn(3)
		p := testProblem(t, g, func(u, x int) float64 {
			return 0.1 + 0.08*float64((u*7+x*13+salt)%10)
		}, nil, T, params)
		randSeed := func() Seed {
			return Seed{User: r.Intn(p.NumUsers()), Item: r.Intn(p.NumItems()), T: 1 + r.Intn(T)}
		}
		base := []Seed{randSeed(), randSeed()}
		groups := [][]Seed{base, WithSeed(base, Seed{User: r.Intn(p.NumUsers()), Item: r.Intn(p.NumItems()), T: T}), nil}
		for k := 2 + r.Intn(4); k > 0; k-- {
			groups = append(groups, []Seed{randSeed()})
		}
		m := 8 + r.Intn(25)
		withPi := r.Intn(2) == 0
		e := NewEstimator(p, m, uint64(r.Int63()))
		e.Workers = 1 + trial%3

		full := e.RunBatchSamples(groups, nil, nil, withPi, 0, m)
		perSample := make([][]float64, len(groups))
		for gi := range perSample {
			perSample[gi] = make([]float64, p.NumItems())
		}
		for i := 0; i < m; i++ {
			for gi, row := range e.RunBatchSamples(groups, nil, nil, withPi, i, i+1) {
				for jj, it := range row[0].Items {
					perSample[gi][it] += row[0].Counts[jj]
				}
			}
		}
		for gi, row := range full {
			if err := ValidateSampleRow(row, m, p.NumItems()); err != nil {
				t.Fatalf("trial %d group %d: %v", trial, gi, err)
			}
			totals := make([]float64, p.NumItems())
			for jj, it := range row[0].Items {
				totals[it] = row[0].Counts[jj]
			}
			if !slices.Equal(totals, perSample[gi]) {
				t.Fatalf("trial %d group %d: row totals %v, one-sample ranges sum to %v", trial, gi, totals, perSample[gi])
			}
			for i := 1; i < m; i++ {
				if row[i].Items != nil {
					t.Fatalf("trial %d group %d: sample %d carries item entries", trial, gi, i)
				}
			}
		}

		cuts := []int{0, m}
		for n := r.Intn(7); n > 0; n-- {
			cuts = append(cuts, 1+r.Intn(m-1))
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		assembled := make([][]SampleResult, len(groups))
		for gi := range assembled {
			assembled[gi] = make([]SampleResult, m)
		}
		for c := 0; c+1 < len(cuts); c++ {
			lo, hi := cuts[c], cuts[c+1]
			for gi, row := range e.RunBatchSamples(groups, nil, nil, withPi, lo, hi) {
				copy(assembled[gi][lo:hi], row)
			}
		}
		want := ReduceSampleGrid(full, p.NumItems())
		requireEstimates(t, fmt.Sprintf("trial %d, ranges %v", trial, cuts), ReduceSampleGrid(assembled, p.NumItems()), want)
		requireEstimates(t, fmt.Sprintf("trial %d, batch engine", trial), e.runBatch(groups, nil, nil, withPi), want)
	}
}

// TestRunBatchSamplesPreemptedLazyAlloc pins the raw grid path's
// cancellation latency: rows materialize on first claim, so a batch
// preempted before it starts must return near-instantly with every
// unclaimed row still nil — not after eagerly allocating the full
// k × span grid (gigabytes at production MC counts, with no
// preemption point inside the allocation loop).
func TestRunBatchSamplesPreemptedLazyAlloc(t *testing.T) {
	p := batchProblem(t)
	e := &Estimator{P: p, M: 1 << 16, Seed: 42, Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.Bind(ctx)
	groups := make([][]Seed, 256)
	for g := range groups {
		groups[g] = []Seed{{User: g % p.NumUsers(), Item: g % p.NumItems(), T: 1}}
	}
	start := time.Now()
	out := e.runBatchSamplesRaw(groups, nil, nil, false, 0, e.M)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("preempted raw batch took %v, want near-instant return", elapsed)
	}
	allocated := 0
	for _, rows := range out {
		if rows != nil {
			allocated++
		}
	}
	// pre-cancelled: workers bail before claiming any unit, so no row
	// should have materialized (tolerate a race-window claim or two)
	if allocated > 4 {
		t.Fatalf("preempted batch allocated %d/256 group rows, want ~0 (eager allocation regressed)", allocated)
	}
}

// fakeSampler is a remote producer returning a fixed grid; it records
// each call so the test can see what the engine asked of it.
type fakeSampler struct {
	grid   [][]SampleResult
	remote uint64
	calls  int
	ctx    context.Context
	e      *Estimator
	withPi bool
}

func (f *fakeSampler) Samples(ctx context.Context, e *Estimator, groups [][]Seed, market []bool, masks [][]bool, withPi bool) ([][]SampleResult, uint64) {
	f.calls++
	f.ctx, f.e, f.withPi = ctx, e, withPi
	return f.grid, f.remote
}

// TestRemoteSampler pins the Estimator.Remote seam: the engine folds
// exactly the grid the producer returns, adds the producer's remote
// campaigns to SamplesDone, never asks it for a zero-group batch, and
// RunBatchSamples stays the local producer — which is what lets a
// remote producer fall back on it without recursing.
func TestRemoteSampler(t *testing.T) {
	p := batchProblem(t)
	groups := batchGroups(p)
	const m = 6
	fake := &fakeSampler{grid: randomGrid(rand.New(rand.NewSource(3)), len(groups), m, p.NumItems()), remote: 1234}
	e := NewEstimator(p, m, 9)
	e.Remote = fake
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.Bind(ctx)

	requireEstimates(t, "remote batch", e.RunBatchPi(groups, nil), ReduceSampleGrid(fake.grid, p.NumItems()))
	if fake.calls != 1 || fake.e != e || fake.ctx != ctx || !fake.withPi {
		t.Fatalf("producer saw calls=%d e=%p ctx=%v withPi=%v", fake.calls, fake.e, fake.ctx, fake.withPi)
	}
	if got := e.SamplesDone(); got != fake.remote {
		t.Fatalf("SamplesDone %d after one remote batch, want %d", got, fake.remote)
	}
	fake.grid = fake.grid[:1]
	if got, want := e.Run(groups[0], nil, false), ReduceSampleGrid(fake.grid, p.NumItems())[0]; !estimatesEqual(got, want) {
		t.Fatalf("remote Run %+v != fold %+v", got, want)
	}

	calls := fake.calls
	if got := e.RunBatch(nil, nil); len(got) != 0 || fake.calls != calls {
		t.Fatalf("zero-group batch: %d estimates, producer calls %d → %d", len(got), calls, fake.calls)
	}
	rows := e.RunBatchSamples(groups, nil, nil, true, 0, m)
	if fake.calls != calls {
		t.Fatal("RunBatchSamples consulted the remote producer")
	}
	gridsEqual(t, NewEstimator(p, m, 9).RunBatchSamples(groups, nil, nil, true, 0, m), rows)
	if got, want := e.SamplesDone(), 2*fake.remote+uint64(len(groups)*m); got != want {
		t.Fatalf("SamplesDone %d, want %d (two remote batches plus the local grid)", got, want)
	}
}
