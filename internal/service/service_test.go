package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"imdpp/internal/cluster"
	"imdpp/internal/core"
	"imdpp/internal/dataset"
	"imdpp/internal/diffusion"
	"imdpp/internal/sketch"
)

func sampleProblem(t *testing.T, budget float64, T int) *diffusion.Problem {
	t.Helper()
	d, err := dataset.AmazonSample()
	if err != nil {
		t.Fatalf("AmazonSample: %v", err)
	}
	return d.Clone(budget, T)
}

// quickReq is a fast-solving request for queue/cache tests.
func quickReq(p *diffusion.Problem) Request {
	return Request{Problem: p, Options: core.Options{MC: 4, MCSI: 2, Seed: 1, CandidateCap: 16}}
}

// slowReq is a request whose solve takes long enough that a test can
// reliably act (cancel, coalesce) while it is in flight.
func slowReq(p *diffusion.Problem) Request {
	return Request{Problem: p, Options: core.Options{MC: 512, MCSI: 64, Seed: 1, CandidateCap: 256}}
}

// checkNoGoroutineLeak polls until the goroutine count returns to
// (about) the baseline — a goleak-style guard against leaked solver
// or worker goroutines.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the scheduler
		n := runtime.NumGoroutine()
		if n <= baseline+2 { // tolerate runtime/test-framework jitter
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHashRequestStableAndSensitive(t *testing.T) {
	p1 := sampleProblem(t, 80, 3)
	p2 := sampleProblem(t, 80, 3) // independently built, identical content
	opt := core.Options{MC: 8, Seed: 7}

	k1 := HashRequest(p1, opt, false)
	k2 := HashRequest(p2, opt, false)
	if k1 != k2 {
		t.Fatalf("identical problems hash differently: %v vs %v", k1, k2)
	}

	// Workers and Progress must not affect the address: the §3
	// contract makes them result-invariant.
	optW := opt
	optW.Workers = 7
	optW.Progress = func(core.ProgressEvent) {}
	if k := HashRequest(p1, optW, false); k != k1 {
		t.Fatalf("Workers/Progress changed the key: %v vs %v", k, k1)
	}

	// zero-valued fields hash as their defaults: a request relying on
	// defaults and one spelling them out run the same solve, so they
	// must share a key
	zero := core.Options{MC: 8, Seed: 7}
	spelled := zero.WithDefaults()
	if k := HashRequest(p1, spelled, false); k != HashRequest(p1, zero, false) {
		t.Fatalf("default-spelling changed the key")
	}
	implicitSeed := core.Options{MC: 8} // Seed 0 → default 1
	explicitSeed := core.Options{MC: 8, Seed: 1}
	if HashRequest(p1, implicitSeed, false) != HashRequest(p1, explicitSeed, false) {
		t.Fatalf("Seed 0 and its default 1 hash differently")
	}

	distinct := map[diffusion.Digest]string{k1: "base"}
	check := func(name string, k diffusion.Digest) {
		if prev, dup := distinct[k]; dup {
			t.Fatalf("%s collides with %s: %v", name, prev, k)
		}
		distinct[k] = name
	}
	optSeed := opt
	optSeed.Seed = 8
	check("seed", HashRequest(p1, optSeed, false))
	optMC := opt
	optMC.MC = 9
	check("mc", HashRequest(p1, optMC, false))
	check("adaptive", HashRequest(p1, opt, true))
	check("budget", HashRequest(sampleProblem(t, 81, 3), opt, false))
	check("T", HashRequest(sampleProblem(t, 80, 4), opt, false))
	// a partially set Cluster runs a different solve than the default
	optCo := opt
	optCo.Cluster = cluster.Options{Strategy: cluster.CoCluster}
	check("co-cluster", HashRequest(p1, optCo, false))
}

// TestCacheDeterminism is the §3-contract payoff: two identical
// requests run one solve; the second is a cache hit returning the
// bit-identical σ.
func TestCacheDeterminism(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{Workers: 1})
	p := sampleProblem(t, 80, 3)

	j1, coalesced, err := s.Submit(quickReq(p))
	if err != nil || coalesced {
		t.Fatalf("submit 1: err=%v coalesced=%v", err, coalesced)
	}
	sol1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatalf("job 1: %v", err)
	}

	j2, coalesced, err := s.Submit(quickReq(sampleProblem(t, 80, 3)))
	if err != nil || coalesced {
		t.Fatalf("submit 2: err=%v coalesced=%v", err, coalesced)
	}
	sol2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatalf("job 2: %v", err)
	}
	if !j2.Snapshot().CacheHit {
		t.Fatal("identical resubmit was not a cache hit")
	}
	if sol1.Sigma != sol2.Sigma { // bit-identical, not approximately
		t.Fatalf("cached σ differs: %v vs %v", sol1.Sigma, sol2.Sigma)
	}
	if len(sol1.Seeds) == 0 {
		t.Fatal("empty solution")
	}

	m := s.Metrics()
	if m.JobsSubmitted != 2 || m.JobsCompleted != 2 || m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.SamplesPerSec <= 0 {
		t.Fatalf("samples/sec not tracked: %+v", m)
	}

	s.Close()
	checkNoGoroutineLeak(t, baseline)
}

// TestCoalescing: concurrent duplicates share one in-flight solve.
func TestCoalescing(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	p := sampleProblem(t, 80, 3)

	j1, coalesced, err := s.Submit(slowReq(p))
	if err != nil || coalesced {
		t.Fatalf("submit 1: err=%v coalesced=%v", err, coalesced)
	}
	j2, coalesced, err := s.Submit(slowReq(sampleProblem(t, 80, 3)))
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if !coalesced || j2 != j1 {
		t.Fatalf("duplicate was not coalesced onto the in-flight job (coalesced=%v, same=%v)", coalesced, j2 == j1)
	}
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatalf("solve: %v", err)
	}
	m := s.Metrics()
	if m.Coalesced != 1 || m.JobsCompleted != 1 {
		t.Fatalf("metrics: %+v", m)
	}

	// after completion the request is no longer in flight: an
	// identical submit now hits the cache instead of coalescing
	j3, coalesced, err := s.Submit(slowReq(p))
	if err != nil || coalesced {
		t.Fatalf("submit 3: err=%v coalesced=%v", err, coalesced)
	}
	if !j3.Snapshot().CacheHit {
		t.Fatal("post-completion duplicate should be a cache hit")
	}
}

// TestCancelRunning: cancelling a running job aborts the solve
// promptly and leaks no goroutines.
func TestCancelRunning(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{Workers: 1})
	p := sampleProblem(t, 80, 3)

	j, _, err := s.Submit(slowReq(p))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// wait for the job to actually start
	deadline := time.Now().Add(10 * time.Second)
	for j.Snapshot().Status == StatusQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	cancelAt := time.Now()
	if !s.Cancel(j.ID()) {
		t.Fatal("cancel: unknown job")
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	latency := time.Since(cancelAt)
	// the engine preempts between (group × sample) units, so the abort
	// should land within about one campaign simulation; the bound is
	// generous for loaded CI machines
	if latency > 500*time.Millisecond {
		t.Fatalf("cancel latency %v, want ≤ 500ms", latency)
	}
	if st := j.Snapshot().Status; st != StatusCancelled {
		t.Fatalf("status = %v want cancelled", st)
	}

	// the slot is free again: a fresh identical request re-solves
	j2, coalesced, err := s.Submit(quickReq(p))
	if err != nil || coalesced {
		t.Fatalf("post-cancel submit: err=%v coalesced=%v", err, coalesced)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatalf("post-cancel solve: %v", err)
	}

	m := s.Metrics()
	if m.JobsCancelled != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	s.Close()
	checkNoGoroutineLeak(t, baseline)
}

// TestCancelQueued: a job cancelled before any worker picks it up
// settles immediately.
func TestCancelQueued(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	p := sampleProblem(t, 80, 3)

	blocker, _, err := s.Submit(slowReq(p))
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	queued, _, err := s.Submit(quickReq(p))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	queued.Cancel()
	select {
	case <-queued.Done():
	case <-time.After(time.Second):
		t.Fatal("queued job did not settle on cancel")
	}
	if st := queued.Snapshot().Status; st != StatusCancelled {
		t.Fatalf("status = %v want cancelled", st)
	}
	blocker.Cancel()
	<-blocker.Done()
}

func TestQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	p := sampleProblem(t, 80, 3)

	blocker, _, err := s.Submit(slowReq(p))
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	// wait until the worker dequeues it, freeing the queue slot
	deadline := time.Now().Add(10 * time.Second)
	for blocker.Snapshot().Status == StatusQueued {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	// distinct requests (different seeds) so coalescing doesn't absorb them
	r2 := slowReq(p)
	r2.Options.Seed = 2
	if _, _, err := s.Submit(r2); err != nil { // fills the queue
		t.Fatalf("submit 2: %v", err)
	}
	r3 := slowReq(p)
	r3.Options.Seed = 3
	if _, _, err := s.Submit(r3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	p := sampleProblem(t, 80, 3)

	var inputErr *core.InputError
	if _, _, err := s.Submit(Request{Problem: nil}); !errors.As(err, &inputErr) {
		t.Fatalf("nil problem: want InputError, got %v", err)
	}
	if _, _, err := s.Submit(Request{Problem: p, Options: core.Options{MC: -1}}); !errors.As(err, &inputErr) || inputErr.Field != "MC" {
		t.Fatalf("negative MC: want InputError{MC}, got %v", err)
	}
	bad := sampleProblem(t, 80, 3)
	bad.Budget = -5
	if _, _, err := s.Submit(Request{Problem: bad}); !errors.As(err, &inputErr) || inputErr.Field != "Budget" {
		t.Fatalf("negative budget: want InputError{Budget}, got %v", err)
	}
	badT := sampleProblem(t, 80, 3)
	badT.T = 0
	if _, _, err := s.Submit(Request{Problem: badT}); !errors.As(err, &inputErr) || inputErr.Field != "T" {
		t.Fatalf("T<1: want InputError{T}, got %v", err)
	}
}

// TestJobRetention: finished jobs are evicted beyond the retention
// window so the job index stays bounded under sustained traffic.
func TestJobRetention(t *testing.T) {
	s := New(Config{Workers: 1, JobRetention: 2})
	defer s.Close()
	p := sampleProblem(t, 80, 3)

	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		r := quickReq(p)
		r.Options.Seed = seed
		j, _, err := s.Submit(r)
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", seed, err)
		}
		ids = append(ids, j.ID())
	}
	// a job is retired before its waiters wake (DESIGN.md §12), so the
	// last Wait has returned after the oldest job's eviction
	if _, ok := s.Job(ids[0]); ok {
		t.Fatal("oldest finished job should have been evicted")
	}
	for _, id := range ids[1:] {
		if _, ok := s.Job(id); !ok {
			t.Fatalf("job %s evicted too early", id)
		}
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s := New(Config{})
	s.Close()
	if _, _, err := s.Submit(quickReq(sampleProblem(t, 80, 3))); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestSigma(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	p := sampleProblem(t, 80, 3)

	seeds := []diffusion.Seed{{User: 0, Item: 0, T: 1}}
	e1, _, err := s.Sigma(context.Background(), p, seeds, SigmaOptions{MC: 32, Seed: 42})
	if err != nil {
		t.Fatalf("sigma: %v", err)
	}
	e2, _, err := s.Sigma(context.Background(), p, seeds, SigmaOptions{MC: 32, Seed: 42})
	if err != nil {
		t.Fatalf("sigma 2: %v", err)
	}
	if e1.Sigma != e2.Sigma || e1.Sigma <= 0 {
		t.Fatalf("σ not deterministic: %v vs %v", e1.Sigma, e2.Sigma)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Sigma(cancelled, p, seeds, SigmaOptions{MC: 32, Seed: 42}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	if _, _, err := s.Sigma(context.Background(), p, []diffusion.Seed{{User: -1, Item: 0, T: 1}}, SigmaOptions{MC: 4, Seed: 1}); err == nil {
		t.Fatal("out-of-range seed accepted")
	}

	// Sigma shares the typed request gate with Submit
	var inputErr *core.InputError
	badT := sampleProblem(t, 80, 3)
	badT.T = 0
	if _, _, err := s.Sigma(context.Background(), badT, nil, SigmaOptions{MC: 4, Seed: 1}); !errors.As(err, &inputErr) || inputErr.Field != "T" {
		t.Fatalf("T<1: want InputError{T}, got %v", err)
	}
	if _, _, err := s.Sigma(context.Background(), p, nil, SigmaOptions{MC: -1, Seed: 1}); !errors.As(err, &inputErr) || inputErr.Field != "MC" {
		t.Fatalf("negative mc: want InputError{MC}, got %v", err)
	}
}

// TestHashRequestSketchLane: the (ε, δ) cache lane of DESIGN.md §9.
// The problem's content address keeps its pre-sketch golden, and an
// epsilon-absent request's key is pinned too: it is the problem's
// digest, then the adaptive flag and the options, with no sketch
// parameters mixed. Sketch answers never alias MC results or each
// other across (ε, δ).
func TestHashRequestSketchLane(t *testing.T) {
	p := sampleProblem(t, 100, 4)
	base := core.Options{MC: 8}

	if got := HashRequest(p, base, false).String(); got != "ceea3a8d6f78a117c1e58f197bd71427" {
		t.Fatalf("epsilon-absent HashRequest drifted from its golden key: %s", got)
	}
	if got := p.ContentDigest().String(); got != "27dff656949cb46f2ce09e07f4f41a95" {
		t.Fatalf("ContentDigest drifted from the pre-sketch golden key: %s", got)
	}

	distinct := map[diffusion.Digest]string{HashRequest(p, base, false): "mc"}
	check := func(name string, o core.Options) {
		k := HashRequest(p, o, false)
		if prev, dup := distinct[k]; dup {
			t.Fatalf("%s shares a cache key with %s: %v", name, prev, k)
		}
		distinct[k] = name
	}
	eps := base
	eps.Epsilon = 0.05
	check("epsilon 0.05", eps)
	eps2 := base
	eps2.Epsilon = 0.1
	check("epsilon 0.1", eps2)
	epsD := eps
	epsD.Delta = 0.2
	check("epsilon 0.05 delta 0.2", epsD)

	// Delta canonicalises to its default before hashing: relying on
	// the default and spelling it out run the same build, so they
	// must share one key.
	spelled := eps
	spelled.Delta = sketch.DefaultDelta
	if HashRequest(p, eps, false) != HashRequest(p, spelled, false) {
		t.Fatalf("defaulted and spelled-out delta hash differently")
	}
}

// TestSketchBackendSelection: Submit echoes backend "sketch" on
// epsilon requests and stays silent on the exact path; Sigma labels
// which estimator answered; the shared sketch index cache is built
// once and then hit.
func TestSketchBackendSelection(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	p := sampleProblem(t, 80, 3)
	ctx := context.Background()

	plain, _, err := s.Submit(quickReq(p))
	if err != nil {
		t.Fatalf("submit mc: %v", err)
	}
	if _, err := plain.Wait(ctx); err != nil {
		t.Fatalf("mc solve: %v", err)
	}
	if b := plain.Snapshot().Backend; b != "" {
		t.Fatalf("MC job echoes backend %q, want empty (unchanged pre-sketch bytes)", b)
	}

	r := quickReq(p)
	// ε = 0.05 → θ ≈ 600 RR samples; coarser sketches can
	// legitimately score every candidate zero on this tiny sample
	r.Options.Epsilon = 0.05
	r.Options.Delta = 0.1
	j, _, err := s.Submit(r)
	if err != nil {
		t.Fatalf("submit sketch: %v", err)
	}
	sol, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("sketch solve: %v", err)
	}
	if sol == nil || len(sol.Seeds) == 0 {
		t.Fatal("sketch solve returned no seeds")
	}
	if b := j.Snapshot().Backend; b != BackendSketch {
		t.Fatalf("sketch job echoes backend %q, want %q", b, BackendSketch)
	}
	if j.Key() == plain.Key() {
		t.Fatal("sketch and MC solves share a cache key")
	}

	seeds := []diffusion.Seed{{User: 0, Item: 0, T: 1}}
	_, name, err := s.Sigma(ctx, p, seeds, SigmaOptions{MC: 8, Seed: 1, Epsilon: 0.05, Delta: 0.1})
	if err != nil {
		t.Fatalf("sketch sigma: %v", err)
	}
	if name != BackendSketch {
		t.Fatalf("sigma backend %q, want %q", name, BackendSketch)
	}
	_, name, err = s.Sigma(ctx, p, seeds, SigmaOptions{MC: 8, Seed: 1})
	if err != nil {
		t.Fatalf("mc sigma: %v", err)
	}
	if name != BackendMC {
		t.Fatalf("sigma backend %q, want %q", name, BackendMC)
	}

	// Sigma shares the (ε, δ) gate with Submit.
	var inputErr *core.InputError
	if _, _, err := s.Sigma(ctx, p, seeds, SigmaOptions{MC: 8, Seed: 1, Epsilon: -1}); !errors.As(err, &inputErr) || inputErr.Field != "Epsilon" {
		t.Fatalf("negative epsilon: want InputError{Epsilon}, got %v", err)
	}
	if _, _, err := s.Sigma(ctx, p, seeds, SigmaOptions{MC: 8, Seed: 1, Delta: 0.5}); !errors.As(err, &inputErr) || inputErr.Field != "Delta" {
		t.Fatalf("delta without epsilon: want InputError{Delta}, got %v", err)
	}

	m := s.Metrics()
	if m.Sketch.Requests < 2 {
		t.Fatalf("sketch_requests = %d, want ≥ 2 (solve + sigma)", m.Sketch.Requests)
	}
	if m.Sketch.Builds != 1 {
		t.Fatalf("sketch_builds = %d, want 1 (index shared across solve and sigma)", m.Sketch.Builds)
	}
	if m.Sketch.CacheHits < 1 {
		t.Fatalf("sketch_cache_hits = %d, want ≥ 1", m.Sketch.CacheHits)
	}
}

// TestProblemKeyMemo pins the substrate's memoized content digest, the
// start of every request key and the grid and sketch lanes' content
// address: over one cold substrate, campaign clones that differ in
// budget, T, χ or Static, keyed concurrently, each get the key of a
// full walk of their inputs, and no two share one.
func TestProblemKeyMemo(t *testing.T) {
	d, err := dataset.AmazonSample()
	if err != nil {
		t.Fatal(err)
	}
	chi, static := d.Clone(100, 4), d.Clone(100, 4)
	chi.Params.Chi *= 2
	static.Params.Static = true
	clones := []*diffusion.Problem{d.Clone(100, 4), d.Clone(50, 4), d.Clone(100, 3), chi, static}
	keys := make([]string, len(clones))
	var wg sync.WaitGroup
	for i, p := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys[i] = p.ContentDigest().String()
		}()
	}
	wg.Wait()
	seen := make(map[string]int)
	for i, p := range clones {
		if want := coldDigest(p).String(); keys[i] != want {
			t.Fatalf("clone %d: memoized key %s, full walk %s", i, keys[i], want)
		}
		if j, dup := seen[keys[i]]; dup {
			t.Fatalf("clones %d and %d share key %s", j, i, keys[i])
		}
		seen[keys[i]] = i
	}
}

// coldDigest is p's content digest by a full walk: the same campaign
// over a new substrate with p's inputs, whose digest is not memoized.
func coldDigest(p *diffusion.Problem) diffusion.Digest {
	s, cold := p.Substrate, *p
	cold.Substrate = &diffusion.Substrate{G: s.G, KG: s.KG, PIN: s.PIN, Importance: s.Importance, BasePref: s.BasePref, Cost: s.Cost}
	return cold.ContentDigest()
}
