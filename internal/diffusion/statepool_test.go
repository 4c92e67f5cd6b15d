package diffusion

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
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

// fork returns a new substrate over s's inputs, with no warm states,
// tables or digest of its own yet.
func fork(s *Substrate) *Substrate {
	return &Substrate{G: s.G, KG: s.KG, PIN: s.PIN, Importance: s.Importance, BasePref: s.BasePref, Cost: s.Cost}
}

// freshBatch answers a batch on a copy of the problem over a forked
// substrate, whose states are all built for this call: the
// never-pooled reference.
func freshBatch(q Problem, m int, seed uint64, groups [][]Seed, masks [][]bool, withPi bool) []Estimate {
	q.Substrate = fork(q.Substrate)
	return NewEstimator(&q, m, seed).RunBatchMasked(groups, masks, withPi)
}

// parked counts the states parked on s.
func parked(s *Substrate) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free)
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

// TestStateReuseMatchesFreshStates passes one substrate's pooled states
// through a sequence of estimators — different M, seeds, worker counts,
// market masks, π on and off, a checkpointed family, a state parked
// mid-family by a cancelled estimator, DRE's MeanWeights, a by-value
// copy with Params.Static flipped as dysimbench's static run makes and
// a campaign clone with another budget and T, both over the same
// substrate — and checks every answer bit for bit against the same
// query on a never-pooled copy of the problem.
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
		if parked(p.Substrate) == 0 {
			t.Fatalf("%s: no state parked on the substrate", s.name)
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
	q.Substrate = fork(p.Substrate)
	ref := NewEstimator(&q, 12, 9).MeanWeights(fam[1], users)
	for j := range ref {
		if math.Float64bits(got[j]) != math.Float64bits(ref[j]) {
			t.Fatalf("MeanWeights[%d] = %v, want %v", j, got[j], ref[j])
		}
	}

	// the static copy and a longer campaign share p's substrate and so
	// its warm states; reuse across them and back on p
	static := *p
	static.Params.Static = !p.Params.Static
	long := *p
	long.Budget, long.T = p.Budget/2, p.T+2
	for _, q := range []*Problem{&static, &long} {
		for _, seed := range []uint64{5, 6} {
			e := NewEstimator(q, 10, seed)
			requireEstimates(t, "clone", e.RunBatchMasked(fam, masks, true), freshBatch(*q, 10, seed, fam, masks, true))
		}
	}
	e = NewEstimator(p, 10, 5)
	requireEstimates(t, "after clones", e.RunBatchMasked(fam, masks, true), freshBatch(*p, 10, 5, fam, masks, true))
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
	if k := parked(p.Substrate); k == 0 || k > maxParked {
		t.Fatalf("%d states parked, want 1..%d", k, maxParked)
	}
}

// TestStatePoolReleasesProblems creates, uses and drops many
// substrates: once unreferenced each is collected with its warm states
// and table, while a substrate still in use keeps its warm states
// across collections, reachable through a campaign clone alone.
func TestStatePoolReleasesProblems(t *testing.T) {
	base := goldenProblem(t)
	seeds := []Seed{{User: 1, Item: 2, T: 1}}
	live := *base
	live.Substrate = fork(base.Substrate)
	NewEstimator(&live, 4, 1).Sigma(seeds)

	const dropped = 50
	keys := make([]weak.Pointer[Substrate], dropped)
	for i := range keys {
		q := *base
		q.Substrate = fork(base.Substrate)
		NewEstimator(&q, 4, uint64(i)).Sigma(seeds)
		keys[i] = weak.Make(q.Substrate)
	}
	clone := live
	clone.Budget++
	live = Problem{}
	left := dropped
	for try := 0; try < 100 && left > 0; try++ {
		runtime.GC()
		left = 0
		for _, k := range keys {
			if k.Value() != nil {
				left++
			}
		}
	}
	if left > 0 {
		t.Fatalf("%d of %d dropped substrates still alive after GC", left, dropped)
	}
	if parked(clone.Substrate) == 0 {
		t.Fatal("a substrate in use lost its warm states to GC")
	}
}

// TestBoundKeyedByProblem checks the keying of a substrate's derived
// data across campaign clones: a copy with another budget and T (same
// χ) shares the original's clean-target table, and a copy with 2·χ
// shares its pool of warm states but builds its own table, whose
// association scales follow its own χ, while the purchase columns (p̄
// and its scale do not depend on χ) come out bit-identical. A state
// borrowed across the two takes the borrower's table.
func TestBoundKeyedByProblem(t *testing.T) {
	p := goldenProblem(t)
	same := *p
	same.Budget, same.T = p.Budget+1, p.T+1
	q := *p
	q.Params.Chi = 2 * p.Params.Chi
	a, s, b := NewState(p).bound, NewState(&same).bound, NewState(&q).bound
	if &a[0] != &s[0] {
		t.Fatal("a same-χ clone builds its own clean-target table")
	}
	if &a[0] == &b[0] {
		t.Fatal("a copy with another χ shares its original's clean-target table")
	}
	eq := NewEstimator(&q, 1, 1)
	st := eq.getState()
	eq.putState(st)
	ep := NewEstimator(p, 1, 1)
	if got := ep.getState(); got != st || &got.bound[0] != &a[0] || got.p != p {
		t.Fatal("a 2·χ copy's parked state is not handed to the original with the original's table")
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
	if k := parked(p.Substrate); k != maxParked {
		t.Fatalf("%d states parked after returning %d, want %d", k, len(borrowed), maxParked)
	}
}

// TestFreshEstimatorAllocatesNoState pins the point of the substrate's
// pool: a σ query through a new Estimator on a warm problem borrows a
// parked State instead of building one, and so does the first query on
// a new campaign clone of it (another budget and T), which builds no
// clean-target table either. The bound sits below what the query plus
// a single NewState would allocate, and holds at MC 1 and MC 100
// alike: the query's sample row carries its item totals once, so its
// allocations do not grow with the sample count.
func TestFreshEstimatorAllocatesNoState(t *testing.T) {
	p := benchProblem(t, 2000, 256)
	seeds := []Seed{{User: 3, Item: 5, T: 1}, {User: 7, Item: 9, T: 2}}
	const bound = 20
	newState := testing.AllocsPerRun(10, func() { NewState(p) })
	table := uint64(len(p.bound(p.Params.Chi))) * uint64(unsafe.Sizeof(cleanBound{}))
	for _, m := range []int{1, 100} {
		query := func(q *Problem) {
			e := NewEstimator(q, m, 1)
			e.Workers = 1
			e.Sigma(seeds)
		}
		query(p) // warm the substrate's pool
		for _, in := range []struct {
			name string
			run  func()
		}{
			{"warm problem", func() { query(p) }},
			{"fresh clone", func() {
				c := *p
				c.Budget, c.T = p.Budget/2, p.T+1
				query(&c)
			}},
		} {
			got := testing.AllocsPerRun(50, in.run)
			if got+newState <= bound {
				t.Fatalf("bound %d cannot catch a State per query: query %v + NewState %v allocations", bound, got, newState)
			}
			if got > bound {
				t.Fatalf("%s: an MC-%d σ query allocates %v objects, want ≤ %d: it builds a State or allocates per sample", in.name, m, got, bound)
			}
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				in.run()
			}
			runtime.ReadMemStats(&after)
			if b := (after.TotalAlloc - before.TotalAlloc) / runs; b >= table/4 {
				t.Fatalf("%s: an MC-%d σ query allocates %d bytes, the clean-target table is %d: it builds one", in.name, m, b, table)
			}
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
