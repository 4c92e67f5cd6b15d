package sketch

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"imdpp/internal/dataset"
	"imdpp/internal/diffusion"
)

func sampleProblem(t *testing.T, budget float64, T int) *diffusion.Problem {
	t.Helper()
	d, err := dataset.AmazonSample()
	if err != nil {
		t.Fatalf("AmazonSample: %v", err)
	}
	return d.Clone(budget, T)
}

func TestTheta(t *testing.T) {
	// θ = ⌈ln(2/δ)/(2ε²)⌉ — the Hoeffding bound from DESIGN.md §9.
	if got := Theta(0.05, 0.05); got != 738 {
		t.Fatalf("Theta(0.05, 0.05) = %d, want 738", got)
	}
	for _, bad := range [][2]float64{{0, 0.05}, {-0.1, 0.05}, {0.1, 0}, {0.1, 1}, {0.1, -0.5}, {math.NaN(), 0.05}, {0.1, math.NaN()}} {
		if got := Theta(bad[0], bad[1]); got != 0 {
			t.Fatalf("Theta(%v, %v) = %d, want 0 for invalid input", bad[0], bad[1], got)
		}
	}
	// Tiny (but valid) ε must clamp, not overflow the int conversion:
	// an unclamped float→int is MinInt on amd64, which skipped Build's
	// MaxTheta cap and panicked in make.
	for _, eps := range []float64{1e-12, math.SmallestNonzeroFloat64} {
		if got := Theta(eps, 0.05); got != math.MaxInt {
			t.Fatalf("Theta(%v, 0.05) = %d, want MaxInt clamp", eps, got)
		}
	}
}

func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	p := sampleProblem(t, 100, 4)
	par := Params{Epsilon: 0.1, Delta: 0.1, Seed: 7}

	sk1, err := Build(p, par, 1, nil)
	if err != nil {
		t.Fatalf("build w=1: %v", err)
	}
	sk4, err := Build(p, par, 4, nil)
	if err != nil {
		t.Fatalf("build w=4: %v", err)
	}
	if !reflect.DeepEqual(sk1, sk4) {
		t.Fatal("sketches differ across worker counts — the §3 stream discipline is broken")
	}
	skAgain, err := Build(p, par, 4, nil)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if !reflect.DeepEqual(sk1, skAgain) {
		t.Fatal("sketches differ across rebuilds")
	}
	if sk1.Theta != Theta(par.Epsilon, par.Delta) {
		t.Fatalf("built θ = %d, want %d", sk1.Theta, Theta(par.Epsilon, par.Delta))
	}
}

// TestBuildGolden pins the RR index bits of one fixed build: the set
// count, the total pair count, an FNV-64 hash of the stored index
// (targets, offsets, pairs) and the static σ estimate of two seed
// groups. TestBuildDeterministicAcrossWorkers only compares builds with
// each other, so it cannot see a change to the RR walk's draw order or
// coin values that every build shares; this test can.
func TestBuildGolden(t *testing.T) {
	p := sampleProblem(t, 100, 4)
	p.Params.Static = true
	sk, err := Build(p, Params{Epsilon: 0.05, Delta: 0.1, Seed: 7}, 2, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, vs := range [][]int64{sk.Targets, sk.Off, sk.Pairs} {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	groups := [][]diffusion.Seed{
		{{User: 3, Item: 14, T: 1}, {User: 11, Item: 0, T: 1}, {User: 35, Item: 7, T: 2}},
		{{User: 97, Item: 14, T: 1}, {User: 9, Item: 14, T: 2}, {User: 10, Item: 4, T: 1}, {User: 19, Item: 0, T: 3}},
	}
	var sc Scratch
	var sigma [2]uint64
	for i, g := range groups {
		sigma[i] = math.Float64bits(sk.Estimate(g, nil, nil, &sc).Sigma)
	}
	const (
		wantSets  = 600
		wantPairs = 718
		wantHash  = 0x80c53603797a6b54
	)
	wantSigma := [2]uint64{0x404ccccccccccccc, 0x404f333333333332}
	if sk.Theta != wantSets || len(sk.Pairs) != wantPairs || h.Sum64() != wantHash || sigma != wantSigma {
		t.Fatalf("RR index moved: sets %d pairs %d hash %#016x σ bits %#016x %#016x; want %d %d %#016x %#016x %#016x",
			sk.Theta, len(sk.Pairs), h.Sum64(), sigma[0], sigma[1],
			wantSets, wantPairs, uint64(wantHash), wantSigma[0], wantSigma[1])
	}
}

func TestBuildValidation(t *testing.T) {
	p := sampleProblem(t, 100, 4)
	if _, err := Build(p, Params{Epsilon: 0, Delta: 0.1}, 1, nil); err == nil {
		t.Fatal("ε = 0 accepted")
	}
	if _, err := Build(p, Params{Epsilon: 0.1, Delta: 2}, 1, nil); err == nil {
		t.Fatal("δ = 2 accepted")
	}
	sk, err := Build(p, Params{Epsilon: 0.001, Delta: 0.05, Seed: 1, MaxTheta: 64}, 2, nil)
	if err != nil {
		t.Fatalf("capped build: %v", err)
	}
	if sk.Theta != 64 {
		t.Fatalf("MaxTheta cap ignored: θ = %d, want 64", sk.Theta)
	}
	// ε small enough to overflow Theta's int conversion must still land
	// on the cap instead of panicking in make([]int64, θ).
	sk, err = Build(p, Params{Epsilon: 1e-12, Delta: 0.05, Seed: 1, MaxTheta: 16}, 2, nil)
	if err != nil {
		t.Fatalf("overflow-ε build: %v", err)
	}
	if sk.Theta != 16 {
		t.Fatalf("overflow-ε θ = %d, want 16", sk.Theta)
	}
}

func TestBuildPreempted(t *testing.T) {
	p := sampleProblem(t, 100, 4)
	stop := make(chan struct{})
	close(stop)
	if _, err := Build(p, Params{Epsilon: 0.05, Delta: 0.05, Seed: 1}, 2, stop); err != ErrPreempted {
		t.Fatalf("want ErrPreempted, got %v", err)
	}
}

// TestEstimateMatchesStoredSets recomputes coverage by brute force
// over the stored sample sets and checks Estimate agrees — the
// coverage-counting query path against its own ground truth.
func TestEstimateMatchesStoredSets(t *testing.T) {
	p := sampleProblem(t, 100, 4)
	sk, err := Build(p, Params{Epsilon: 0.05, Delta: 0.1, Seed: 5}, 3, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}

	seeds := []diffusion.Seed{{User: 2, Item: 1, T: 1}, {User: 9, Item: 0, T: 2}}
	keys := make(map[int64]bool, len(seeds))
	for _, s := range seeds {
		keys[int64(s.User)*int64(sk.Items)+int64(s.Item)] = true
	}
	covered := 0
	for i := 0; i < sk.Theta; i++ {
		set := sk.Pairs[sk.Off[i]:sk.Off[i+1]]
		for _, k := range set {
			if keys[k] {
				covered++
				break
			}
		}
	}
	want := float64(covered) * sk.SigmaScale()

	var sc Scratch
	got := sk.Estimate(seeds, nil, nil, &sc)
	if got.Sigma != want {
		t.Fatalf("Estimate σ = %v, brute force = %v", got.Sigma, want)
	}
	// Reusing the scratch must not change the answer.
	if again := sk.Estimate(seeds, nil, nil, &sc); again.Sigma != want {
		t.Fatalf("scratch reuse changed σ: %v vs %v", again.Sigma, want)
	}
}

// TestStaticSigmaWithinContract is the unit-sized version of the
// imdppbench -fig sketch harness: under the static regime, sketch σ
// stays within the additive ε·n·W bound of an MC ground truth.
func TestStaticSigmaWithinContract(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical agreement check; run without -short")
	}
	p := sampleProblem(t, 100, 4)
	p.Params.Static = true

	const eps, delta = 0.05, 0.05
	sk, err := Build(p, Params{Epsilon: eps, Delta: delta, Seed: 2}, 0, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var wsum float64
	for _, w := range p.Importance {
		wsum += w
	}
	bound := eps * float64(p.NumUsers()) * wsum

	mc := diffusion.NewEstimator(p, 256, 99)
	groups := make([][]diffusion.Seed, 8)
	for i := range groups {
		groups[i] = []diffusion.Seed{
			{User: (i * 11) % p.NumUsers(), Item: i % p.NumItems(), T: 1},
			{User: (i * 17) % p.NumUsers(), Item: (i + 3) % p.NumItems(), T: 1 + i%p.T},
		}
	}
	truth := mc.SigmaBatch(groups)
	var sc Scratch
	for gi, g := range groups {
		got := sk.Estimate(g, nil, nil, &sc).Sigma
		if diff := math.Abs(got - truth[gi]); diff > bound {
			t.Fatalf("group %d: |σ_sketch − σ_mc| = %v exceeds ε·n·W = %v (sketch %v, mc %v)",
				gi, diff, bound, got, truth[gi])
		}
	}
}

func TestCacheSingleflightAndDistinctKeys(t *testing.T) {
	p := sampleProblem(t, 100, 4)
	c := NewCache()

	par := Params{Epsilon: 0.1, Delta: 0.1, Seed: 1}
	sk1, err := c.GetOrBuild(p, par, 1, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sk2, err := c.GetOrBuild(p, par, 1, nil)
	if err != nil {
		t.Fatalf("hit: %v", err)
	}
	if sk1 != sk2 {
		t.Fatal("identical parameters did not share one sketch")
	}
	if builds, hits := c.Stats(); builds != 1 || hits != 1 {
		t.Fatalf("stats = (%d builds, %d hits), want (1, 1)", builds, hits)
	}

	// Every (ε, δ, seed, MaxTheta) perturbation is its own cache
	// identity — including the cap, which changes θ once it binds.
	for _, par2 := range []Params{
		{Epsilon: 0.2, Delta: 0.1, Seed: 1},
		{Epsilon: 0.1, Delta: 0.2, Seed: 1},
		{Epsilon: 0.1, Delta: 0.1, Seed: 2},
		{Epsilon: 0.1, Delta: 0.1, Seed: 1, MaxTheta: 32},
	} {
		skN, err := c.GetOrBuild(p, par2, 1, nil)
		if err != nil {
			t.Fatalf("build %+v: %v", par2, err)
		}
		if skN == sk1 {
			t.Fatalf("%+v aliased the (0.1, 0.1, 1) sketch", par2)
		}
	}
	if builds, _ := c.Stats(); builds != 5 {
		t.Fatalf("builds = %d, want 5", builds)
	}
}

// TestCacheJoinerOwnStop pins that a caller joined to another's
// sketch build is governed by its own stop channel alone: the owner's
// preemption must not fail a live joiner (it rebuilds), and a joiner
// that gives up must return promptly without stopping the owner.
func TestCacheJoinerOwnStop(t *testing.T) {
	p := sampleProblem(t, 100, 4)
	// θ ≈ 74k RR samples: the owner's build is still running long after
	// the joiner has joined
	par := Params{Epsilon: 0.005, Delta: 0.05, Seed: 3}
	type result struct {
		sk  *Sketch
		err error
	}
	// run starts the owner, then the joiner once the owner has taken
	// its key: the store's first lookup reserves the key for it
	run := func(ownerStop, joinerStop <-chan struct{}) (c *Cache, owner, joiner chan result) {
		c = NewCache()
		owner, joiner = make(chan result, 1), make(chan result, 1)
		go func() {
			sk, err := c.GetOrBuild(p, par, 1, ownerStop)
			owner <- result{sk, err}
		}()
		for c.store.Stats().Lookups == 0 {
			runtime.Gosched()
		}
		go func() {
			sk, err := c.GetOrBuild(p, par, 1, joinerStop)
			joiner <- result{sk, err}
		}()
		return c, owner, joiner
	}

	// the owner is cancelled after the nil-stop joiner joined
	stop := make(chan struct{})
	c, owner, joiner := run(stop, nil)
	for _, hits := c.Stats(); hits == 0; _, hits = c.Stats() {
		runtime.Gosched()
	}
	close(stop)
	<-owner
	if r := <-joiner; r.err != nil || r.sk == nil || r.sk.Theta != par.withDefaults().theta() {
		t.Fatalf("nil-stop joiner of a preempted build: sketch %t, err %v", r.sk != nil, r.err)
	}

	// the joiner's own stop fires; the owner keeps building
	fired := make(chan struct{})
	close(fired)
	_, owner, joiner = run(nil, fired)
	if r := <-joiner; !errors.Is(r.err, ErrPreempted) {
		t.Fatalf("stopped joiner: sketch %t, err %v, want ErrPreempted", r.sk != nil, r.err)
	}
	select {
	case <-owner:
		t.Fatal("the stopped joiner waited for the owner's build")
	default:
	}
	if r := <-owner; r.err != nil || r.sk == nil {
		t.Fatalf("owner after its joiner stopped: sketch %t, err %v", r.sk != nil, r.err)
	}
}

// TestEstimatorDelegation pins the hybrid split: σ-only queries come
// from coverage counting, while the MC fallback (invalid sketch
// parameters) and the π-bearing paths answer exactly like the plain
// MC engine.
func TestEstimatorDelegation(t *testing.T) {
	p := sampleProblem(t, 100, 4)
	p.Params.Static = true
	seeds := []diffusion.Seed{{User: 1, Item: 1, T: 1}}

	e := New(p, Config{Epsilon: 0.1, Delta: 0.1}, 16, 42, 0)
	if err := e.Warm(); err != nil {
		t.Fatalf("warm: %v", err)
	}
	sk, err := Build(p, Params{Epsilon: 0.1, Delta: 0.1, Seed: 42}, 1, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var sc Scratch
	if got, want := e.Sigma(seeds), sk.Estimate(seeds, nil, nil, &sc).Sigma; got != want {
		t.Fatalf("estimator σ = %v, direct sketch σ = %v", got, want)
	}
	if got := e.SigmaBatch([][]diffusion.Seed{seeds}); got[0] != e.Sigma(seeds) {
		t.Fatalf("SigmaBatch diverges from Sigma: %v vs %v", got[0], e.Sigma(seeds))
	}

	// π-bearing evaluation delegates to the embedded MC engine.
	mc := diffusion.NewEstimator(p, 16, 42)
	if got, want := e.RunBatchPi([][]diffusion.Seed{seeds}, nil)[0], mc.RunBatchPi([][]diffusion.Seed{seeds}, nil)[0]; got.Sigma != want.Sigma || got.Pi != want.Pi {
		t.Fatalf("RunBatchPi not bit-identical to MC: %+v vs %+v", got, want)
	}

	// Broken sketch parameters degrade to the exact engine.
	bad := New(p, Config{Epsilon: -1, Delta: 0.1}, 16, 42, 0)
	if err := bad.Warm(); err == nil {
		t.Fatal("Warm accepted ε = -1")
	}
	mc2 := diffusion.NewEstimator(p, 16, 42)
	if got, want := bad.Sigma(seeds), mc2.Sigma(seeds); got != want {
		t.Fatalf("MC fallback σ = %v, plain MC σ = %v", got, want)
	}
}
