package diffusion

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// TestRunBatchSamplesAllocs pins the producer's allocation cost, which
// keeps the uncached path as cheap as folding in place: one row per
// group, and each sample's sparse per-item entries in two exact-size
// arrays rather than append's growth steps.
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
	const m = 32
	e := NewEstimator(p, m, 9)
	e.Workers = 1
	run := func() { e.RunBatchSamples(groups, nil, nil, true, 0, m) }
	run() // warm the state pool
	entries := 0
	for _, row := range e.RunBatchSamples(groups, nil, nil, true, 0, m) {
		for _, s := range row {
			entries += len(s.Items)
		}
	}
	units := len(groups) * m
	if entries < 2*units {
		t.Fatalf("%d sparse entries over %d samples: cascades too small to tell exact sizing from append", entries, units)
	}
	const overhead = 16
	limit := float64(2*units + len(groups) + overhead)
	if a := testing.AllocsPerRun(5, run); a > limit {
		t.Fatalf("%v allocations for %d groups × %d samples, want ≤ %v", a, len(groups), m, limit)
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
	} {
		if err := ValidateSampleRow(tc.row, 2, 4); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	if err := ValidateSampleRow([]SampleResult{ok, {}}, 2, 4); err != nil {
		t.Fatalf("valid row rejected: %v", err)
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
