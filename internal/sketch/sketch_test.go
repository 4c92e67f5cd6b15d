package sketch

import (
	"bytes"
	"errors"
	"math"
	"os"
	"runtime"
	"sync"
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
	b1 := sk1.AppendBinary(nil)
	if b4 := sk4.AppendBinary(nil); !bytes.Equal(b1, b4) {
		t.Fatal("sketch bytes differ across worker counts — the §3 stream discipline is broken")
	}
	skAgain, err := Build(p, par, 4, nil)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if !bytes.Equal(b1, skAgain.AppendBinary(nil)) {
		t.Fatal("sketch bytes differ across rebuilds")
	}
	if sk1.Theta != Theta(par.Epsilon, par.Delta) {
		t.Fatalf("built θ = %d, want %d", sk1.Theta, Theta(par.Epsilon, par.Delta))
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

func TestCodecRoundTrip(t *testing.T) {
	p := sampleProblem(t, 100, 4)
	sk, err := Build(p, Params{Epsilon: 0.08, Delta: 0.1, Seed: 11}, 2, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sk.ProblemKey = "deadbeefdeadbeefdeadbeefdeadbeef"
	enc := sk.AppendBinary(nil)

	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(enc, dec.AppendBinary(nil)) {
		t.Fatal("re-encode of decoded sketch is not byte-identical")
	}
	if dec.ProblemKey != sk.ProblemKey || dec.Seed != sk.Seed || dec.Theta != sk.Theta ||
		dec.Epsilon != sk.Epsilon || dec.Delta != sk.Delta || dec.Users != sk.Users || dec.Items != sk.Items {
		t.Fatal("decoded identity fields differ")
	}

	// A decoded sketch must answer queries identically.
	seeds := []diffusion.Seed{{User: 1, Item: 0, T: 1}, {User: 3, Item: 2, T: 2}}
	var sc1, sc2 Scratch
	if a, b := sk.Estimate(seeds, nil, nil, &sc1), dec.Estimate(seeds, nil, nil, &sc2); a.Sigma != b.Sigma {
		t.Fatalf("decoded sketch σ = %v, want %v", b.Sigma, a.Sigma)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	p := sampleProblem(t, 100, 4)
	sk, err := Build(p, Params{Epsilon: 0.1, Delta: 0.1, Seed: 3}, 1, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	enc := sk.AppendBinary(nil)

	if _, err := Decode(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated input accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	trailing := append(append([]byte(nil), enc...), 0x00)
	if _, err := Decode(trailing); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestEstimateMatchesStoredSets recomputes coverage by brute force
// over the serialized sample sets and checks Estimate agrees — the
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
	keyFn := func(*diffusion.Problem) string { return "problemkey" }
	c := NewCache(4, "", keyFn)

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
	if builds, hits, _ := c.Stats(); builds != 1 || hits != 1 {
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
	if builds, _, _ := c.Stats(); builds != 5 {
		t.Fatalf("builds = %d, want 5", builds)
	}
}

func TestCacheDiskRoundTrip(t *testing.T) {
	p := sampleProblem(t, 100, 4)
	dir := t.TempDir()
	keyFn := func(*diffusion.Problem) string { return "pk" }
	par := Params{Epsilon: 0.1, Delta: 0.1, Seed: 9}

	c1 := NewCache(2, dir, keyFn)
	sk1, err := c1.GetOrBuild(p, par, 1, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}

	// A fresh cache over the same directory reloads instead of building.
	c2 := NewCache(2, dir, keyFn)
	sk2, err := c2.GetOrBuild(p, par, 1, nil)
	if err != nil {
		t.Fatalf("disk load: %v", err)
	}
	if builds, _, diskHits := c2.Stats(); builds != 0 || diskHits != 1 {
		t.Fatalf("disk reload stats = (%d builds, %d diskHits), want (0, 1)", builds, diskHits)
	}
	if !bytes.Equal(sk1.AppendBinary(nil), sk2.AppendBinary(nil)) {
		t.Fatal("disk round-trip changed sketch bytes")
	}

	// A cache with a different problem key must NOT accept the file:
	// .rrsk loads are self-verifying.
	c3 := NewCache(2, dir, func(*diffusion.Problem) string { return "otherpk" })
	if _, err := c3.GetOrBuild(p, par, 1, nil); err != nil {
		t.Fatalf("build under other key: %v", err)
	}
	if builds, _, _ := c3.Stats(); builds != 1 {
		t.Fatalf("foreign key should rebuild, builds = %d", builds)
	}

	// A file renamed onto a different-cap key must fail the θ
	// self-verify and rebuild: its sample count satisfies a different
	// contract than the one being asked for.
	capped := Params{Epsilon: 0.1, Delta: 0.1, Seed: 9, MaxTheta: 32}
	c4 := NewCache(2, dir, keyFn)
	if err := os.Rename(
		c4.path(c4.key("pk", par.withDefaults())),
		c4.path(c4.key("pk", capped.withDefaults())),
	); err != nil {
		t.Fatalf("rename: %v", err)
	}
	sk4, err := c4.GetOrBuild(p, capped, 1, nil)
	if err != nil {
		t.Fatalf("capped build: %v", err)
	}
	if sk4.Theta != 32 {
		t.Fatalf("capped θ = %d, want 32 (stale uncapped image accepted?)", sk4.Theta)
	}
	if builds, _, diskHits := c4.Stats(); builds != 1 || diskHits != 0 {
		t.Fatalf("mismatched-θ image stats = (%d builds, %d diskHits), want (1, 0)", builds, diskHits)
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
	// its key (keyFn is the last step before GetOrBuild looks it up)
	run := func(ownerStop, joinerStop <-chan struct{}) (c *Cache, owner, joiner chan result) {
		first := make(chan struct{})
		var once sync.Once
		c = NewCache(4, "", func(*diffusion.Problem) string {
			once.Do(func() { close(first) })
			return "pk"
		})
		owner, joiner = make(chan result, 1), make(chan result, 1)
		go func() {
			sk, err := c.GetOrBuild(p, par, 1, ownerStop)
			owner <- result{sk, err}
		}()
		<-first
		go func() {
			sk, err := c.GetOrBuild(p, par, 1, joinerStop)
			joiner <- result{sk, err}
		}()
		return c, owner, joiner
	}

	// the owner is cancelled after the nil-stop joiner joined
	stop := make(chan struct{})
	c, owner, joiner := run(stop, nil)
	for _, hits, _ := c.Stats(); hits == 0; _, hits, _ = c.Stats() {
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
