package diffusion

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"imdpp/internal/rng"
)

// poolMask is a deterministic market mask over n users.
func poolMask(n int, salt uint64) []bool {
	r := rng.New(salt)
	m := make([]bool, n)
	for u := range m {
		m[u] = r.Float64() < 0.6
	}
	return m
}

// freshBatch answers a batch on a by-value copy of the problem — a new
// pool key whose states are all built for this call, the never-pooled
// reference.
func freshBatch(q Problem, m int, seed uint64, groups [][]Seed, masks [][]bool, withPi bool) []Estimate {
	return NewEstimator(&q, m, seed).RunBatchMasked(groups, masks, withPi)
}

// parkMidFamily runs one sample of groups' first family on a borrowed
// state under a cancelled context, so runFamily stops after the root's
// campaign with its checkpoints captured, and parks that state.
func parkMidFamily(t *testing.T, p *Problem, groups [][]Seed) {
	t.Helper()
	fams := planFamilies(groups, func(int) []bool { return nil }, p.T)
	if len(fams[0].cuts) == 0 {
		t.Fatal("batch plans no checkpointed family")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEstimator(p, 1, 77)
	e.Bind(ctx)
	st := e.getState()
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	emit := func(int, int, *Result, float64) {}
	if e.runFamily(st, &res, &fams[0], groups, func(int) []bool { return nil }, true, 3, rng.New(77), emit) {
		t.Fatal("a cancelled estimator ran the whole family")
	}
	if len(st.touched) == 0 || len(st.ckpts) == 0 {
		t.Fatal("the parked state holds no rows or checkpoints to clean")
	}
	e.putState(st)
}

// TestStateReuseMatchesFreshStates passes one problem's pooled states
// through a sequence of estimators — different M, seeds, worker counts,
// market masks, π on and off, a checkpointed family, a state parked
// mid-family by a cancelled estimator, DRE's MeanWeights, and a
// by-value copy with Params.Static flipped as dysimbench's static run
// makes — and checks every answer bit for bit against the same query
// on a never-pooled copy of the problem.
func TestStateReuseMatchesFreshStates(t *testing.T) {
	p := prefixProblem(t, false)
	n := p.NumUsers()
	fam, _ := prefixGroups()
	masks := make([][]bool, len(fam))
	for g := 1; g < len(fam); g += 3 {
		masks[g] = poolMask(n, uint64(g))
	}
	market := poolMask(n, 0)
	shared := make([][]bool, len(fam))
	for g := range shared {
		shared[g] = market
	}

	steps := []struct {
		name    string
		m       int
		seed    uint64
		workers int
		masks   [][]bool
		withPi  bool
	}{
		{"sigma", 16, 1, 1, nil, false},
		{"pi-per-group-masks", 7, 2, 2, masks, true},
		{"pi-shared-market", 24, 3, 3, shared, true},
		{"sigma-masks", 5, 4, 2, masks, false},
	}
	for i, s := range steps {
		e := NewEstimator(p, s.m, s.seed)
		e.Workers = s.workers
		requireEstimates(t, s.name, e.RunBatchMasked(fam, s.masks, s.withPi), freshBatch(*p, s.m, s.seed, fam, s.masks, s.withPi))
		if len(poolOf(p).free) == 0 {
			t.Fatalf("%s: no state parked on the problem", s.name)
		}
		if i == 1 {
			parkMidFamily(t, p, fam)
		}
	}

	// a single-group query and DRE's weighting expectation
	e := NewEstimator(p, 12, 9)
	one := [][]Seed{fam[1]}
	requireEstimates(t, "run", []Estimate{e.Run(fam[1], market, true)}, freshBatch(*p, 12, 9, one, [][]bool{market}, true))
	users := []int{0, 3, 7, 11}
	got := e.MeanWeights(fam[1], users)
	q := *p
	ref := NewEstimator(&q, 12, 9).MeanWeights(fam[1], users)
	for j := range ref {
		if math.Float64bits(got[j]) != math.Float64bits(ref[j]) {
			t.Fatalf("MeanWeights[%d] = %v, want %v", j, got[j], ref[j])
		}
	}

	// the static copy is a new pool key; reuse within it and back on p
	static := *p
	static.Params.Static = !p.Params.Static
	for _, seed := range []uint64{5, 6} {
		e := NewEstimator(&static, 10, seed)
		requireEstimates(t, "static", e.RunBatchMasked(fam, masks, true), freshBatch(static, 10, seed, fam, masks, true))
	}
	e = NewEstimator(p, 10, 5)
	requireEstimates(t, "after static", e.RunBatchMasked(fam, masks, true), freshBatch(*p, 10, 5, fam, masks, true))
}

// TestStateReuseConcurrent runs estimators on one problem from several
// goroutines at once, each also running batches cancelled part-way,
// and checks every completed answer against the never-pooled
// reference. The pool's locking is what `make race` watches here, so
// the test is small enough to run under -short.
func TestStateReuseConcurrent(t *testing.T) {
	p := prefixProblem(t, false)
	fam, _ := prefixGroups()
	masks := make([][]bool, len(fam))
	for g := 2; g < len(fam); g += 4 {
		masks[g] = poolMask(p.NumUsers(), uint64(g))
	}
	const goroutines, rounds = 4, 3
	want := make([][]Estimate, goroutines)
	for g := range want {
		want[g] = freshBatch(*p, 8, uint64(g), fam, masks, g%2 == 0)
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// a cancelled estimator parks whatever state it stopped in
				ctx, cancel := context.WithCancel(context.Background())
				c := NewEstimator(p, 64, uint64(100+g))
				c.Workers = 2
				c.Bind(ctx)
				stop := time.AfterFunc(50*time.Microsecond, cancel)
				c.RunBatchMasked(fam, masks, true)
				stop.Stop()
				cancel()

				e := NewEstimator(p, 8, uint64(g))
				e.Workers = 2
				got := e.RunBatchMasked(fam, masks, g%2 == 0)
				for i := range got {
					if !estimatesEqual(got[i], want[g][i]) {
						errs <- "goroutine answer differs from the never-pooled reference"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if k := len(poolOf(p).free); k == 0 || k > maxParked {
		t.Fatalf("%d states parked, want 1..%d", k, maxParked)
	}
}

// pooled reports whether the registry holds an entry for k.
func pooled(k weak.Pointer[Problem]) bool {
	statePools.mu.Lock()
	defer statePools.mu.Unlock()
	_, ok := statePools.m[k]
	return ok
}

// TestStatePoolReleasesProblems creates, uses and drops many problems:
// once they are collected the registry holds none of them, while a
// problem still in use keeps its warm states across collections.
func TestStatePoolReleasesProblems(t *testing.T) {
	base := goldenProblem(t)
	seeds := []Seed{{User: 1, Item: 2, T: 1}}
	live := *base
	NewEstimator(&live, 4, 1).Sigma(seeds)

	const dropped = 50
	keys := make([]weak.Pointer[Problem], dropped)
	for i := range keys {
		q := new(Problem)
		*q = *base
		NewEstimator(q, 4, uint64(i)).Sigma(seeds)
		keys[i] = weak.Make(q)
	}
	left := dropped
	for try := 0; try < 100 && left > 0; try++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // cleanups run on their own goroutine
		left = 0
		for _, k := range keys {
			if pooled(k) || k.Value() != nil {
				left++
			}
		}
	}
	if left > 0 {
		t.Fatalf("%d of %d dropped problems still alive or registered after GC", left, dropped)
	}
	if !pooled(weak.Make(&live)) || len(poolOf(&live).free) == 0 {
		t.Fatal("a problem in use lost its warm states to GC")
	}
	runtime.KeepAlive(&live)
}

// TestBoundKeyedByProblem copies a problem by value with another Chi,
// as dysimbench's static run copies one with another Static: the copy
// is a new pool key, so it builds its own clean-target table, whose
// association scales follow its own Chi, while the purchase columns
// (p̄ and its scale do not depend on Chi) come out bit-identical.
func TestBoundKeyedByProblem(t *testing.T) {
	p := goldenProblem(t)
	q := *p
	q.Params.Chi = 2 * p.Params.Chi
	a, b := NewState(p).bound, NewState(&q).bound
	if &a[0] == &b[0] {
		t.Fatal("a copy with another Chi shares its original's clean-target table")
	}
	checkBound(t, p, a)
	checkBound(t, &q, b)
	moved := 0
	for c := range a {
		if a[c].pbar != b[c].pbar || a[c].scale != b[c].scale {
			t.Fatalf("cell %d: purchase columns %+v vs %+v differ across a Chi change", c, a[c], b[c])
		}
		if a[c].scaleA != b[c].scaleA {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no association scale moved with Chi: the check is vacuous")
	}
}

// TestStatePoolIsBounded returns more states than a problem's free
// list keeps: the list stops at maxParked and the rest are dropped.
func TestStatePoolIsBounded(t *testing.T) {
	p := goldenProblem(t)
	e := NewEstimator(p, 1, 1)
	borrowed := make([]*State, maxParked+4)
	for i := range borrowed {
		borrowed[i] = e.getState()
	}
	for _, st := range borrowed {
		e.putState(st)
	}
	if k := len(poolOf(p).free); k != maxParked {
		t.Fatalf("%d states parked after returning %d, want %d", k, len(borrowed), maxParked)
	}
}

// TestFreshEstimatorAllocatesNoState pins the point of the per-problem
// pool: a σ query through a new Estimator on a warm problem borrows a
// parked State instead of building one. The bound sits below what the
// query plus a single NewState would allocate, and holds at MC 1 and
// MC 100 alike: the query's sample row carries its item totals once,
// so its allocations do not grow with the sample count.
func TestFreshEstimatorAllocatesNoState(t *testing.T) {
	p := benchProblem(t, 2000, 256)
	seeds := []Seed{{User: 3, Item: 5, T: 1}, {User: 7, Item: 9, T: 2}}
	const bound = 20
	newState := testing.AllocsPerRun(10, func() { NewState(p) })
	for _, m := range []int{1, 100} {
		query := func() {
			e := NewEstimator(p, m, 1)
			e.Workers = 1
			e.Sigma(seeds)
		}
		query() // warm the problem's pool
		got := testing.AllocsPerRun(50, query)
		if got+newState <= bound {
			t.Fatalf("bound %d cannot catch a State per query: query %v + NewState %v allocations", bound, got, newState)
		}
		if got > bound {
			t.Fatalf("a warm MC-%d σ query allocates %v objects, want ≤ %d: it builds a State or allocates per sample", m, got, bound)
		}
	}
}

// BenchmarkSigmaFreshEstimator measures the service's σ-query shape: a
// new Estimator per op on a warm problem, MC 100, one worker, a random
// group of 2–5 seeds and a fresh query seed each time. B/op and
// allocs/op show whether the query builds simulation state.
func BenchmarkSigmaFreshEstimator(b *testing.B) {
	p := benchProblem(b, 2000, 256)
	r := rng.New(5)
	groups := make([][]Seed, 64)
	for i := range groups {
		for k := 2 + r.Intn(4); k > 0; k-- {
			groups[i] = append(groups[i], Seed{User: r.Intn(p.NumUsers()), Item: r.Intn(p.NumItems()), T: 1 + r.Intn(p.T)})
		}
	}
	warm := NewEstimator(p, 100, 0)
	warm.Workers = 1
	warm.Sigma(groups[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEstimator(p, 100, uint64(i))
		e.Workers = 1
		e.Sigma(groups[i%len(groups)])
	}
}
