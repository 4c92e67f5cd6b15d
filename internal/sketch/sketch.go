package sketch

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"imdpp/internal/diffusion"
	"imdpp/internal/rng"
)

// ErrPreempted reports a sketch build aborted by its stop channel
// (typically a cancelled request context). A preempted build returns
// no sketch; nothing partial is cached.
var ErrPreempted = errors.New("sketch: build preempted")

// DefaultDelta is the failure probability of the (ε, δ) contract when
// a request sets epsilon but leaves delta unset.
const DefaultDelta = 0.05

// defaultMaxTheta caps θ so an aggressive ε cannot provoke an
// unbounded build: 2^20 RR samples is already far beyond the sample
// counts the MC engine runs, and past the cap the contract degrades
// gracefully (more residual error, never more memory).
const defaultMaxTheta = 1 << 20

// Params select one sketch: the (ε, δ) accuracy contract plus the
// master seed of the RR sample streams. Two sketches built from equal
// (problem, Params) are identical — the §3 determinism contract
// extended to index construction.
type Params struct {
	// Epsilon is the additive accuracy: |σ̂(S) − σ(S)| ≤ ε·n·W with
	// probability ≥ 1−δ, where n is the user count and W = Σ_x w_x.
	// Must be > 0.
	Epsilon float64
	// Delta is the failure probability δ ∈ (0, 1); 0 selects
	// DefaultDelta.
	Delta float64
	// Seed is the master RNG seed; sample i draws from
	// rng.New(Seed).Split(i).
	Seed uint64
	// MaxTheta caps the RR sample count (0 → 2^20).
	MaxTheta int
}

func (par Params) withDefaults() Params {
	if par.Delta == 0 {
		par.Delta = DefaultDelta
	}
	if par.MaxTheta <= 0 {
		par.MaxTheta = defaultMaxTheta
	}
	return par
}

// Theta returns the RR sample count for an (ε, δ) contract: the
// additive Hoeffding bound θ = ⌈ln(2/δ) / (2ε²)⌉, which makes the
// coverage-mean estimate of σ/(n·W) accurate to ±ε with probability
// ≥ 1−δ for each queried seed group. DESIGN.md §9 discusses why the
// repo uses the additive bound rather than TIM/IMM's relative one.
func Theta(epsilon, delta float64) int {
	// !(x > 0) rather than x <= 0: NaN must also land in the invalid
	// branch instead of flowing into the int conversion below
	if !(epsilon > 0) || !(delta > 0) || delta >= 1 {
		return 0
	}
	t := math.Ceil(math.Log(2/delta) / (2 * epsilon * epsilon))
	if t < 1 {
		return 1
	}
	// float→int conversion is implementation-defined once t exceeds
	// MaxInt (MinInt on amd64) — a tiny ε would then slip past Build's
	// MaxTheta cap as a negative θ. Clamp on the float side first; the
	// comparison bound is exact because float64(MaxInt) is 2⁶³.
	if t >= float64(math.MaxInt) {
		return math.MaxInt
	}
	return int(t)
}

// theta returns the capped sample count Build uses for par
// (withDefaults applied by the caller): Theta(ε, δ) bounded by
// MaxTheta, with 0 still signalling invalid (ε, δ).
func (par Params) theta() int {
	t := Theta(par.Epsilon, par.Delta)
	if t > par.MaxTheta {
		t = par.MaxTheta
	}
	return t
}

// Sketch is one immutable RR-sample index for one problem. The
// exported fields are its content; the coverage index is derived from
// them by Build.
type Sketch struct {
	Users int
	Items int
	// Seed, Epsilon, Delta identify the build parameters; Theta is the
	// sample count they imply.
	Seed    uint64
	Epsilon float64
	Delta   float64
	Theta   int
	// WSum is Σ_x w_x at build time, the σ scale factor.
	WSum float64
	// ItemW is the per-item importance table w_x the target items were
	// drawn against, which the unweighted adoption estimates divide by.
	ItemW []float64

	// Targets[i] is sample i's target pair key u·Items+x.
	Targets []int64
	// Pairs[Off[i]:Off[i+1]] is sample i's RR set: every product-graph
	// pair whose adoption could have caused the target's, sorted
	// ascending (canonical form).
	Off   []int64
	Pairs []int64

	// cov maps a pair key to the ascending sample indices it appears
	// in — the inverted index coverage counting walks.
	cov map[int64][]int32
}

// pairKey flattens a (user, item) pair into the product-graph id the
// RR sets are stored under.
func pairKey(u, x, items int) int64 { return int64(u)*int64(items) + int64(x) }

// SigmaScale returns the per-covered-sample σ increment n·W/θ.
func (sk *Sketch) SigmaScale() float64 {
	if sk.Theta == 0 {
		return 0
	}
	return float64(sk.Users) * sk.WSum / float64(sk.Theta)
}

// Bytes reports the approximate retained footprint of the sketch plus
// its coverage index, for StateBytes accounting.
func (sk *Sketch) Bytes() uint64 {
	b := uint64(8 * (len(sk.Targets) + len(sk.Off) + len(sk.Pairs)))
	// inverted index: one int32 per stored pair plus rough map overhead
	// per distinct key
	b += uint64(4*len(sk.Pairs)) + uint64(48*len(sk.cov))
	return b
}

// buildIndex derives the inverted coverage index. Samples are scanned
// in ascending order, so every posting list is ascending.
func (sk *Sketch) buildIndex() {
	cov := make(map[int64][]int32)
	for i := 0; i < sk.Theta; i++ {
		for _, k := range sk.Pairs[sk.Off[i]:sk.Off[i+1]] {
			cov[k] = append(cov[k], int32(i))
		}
	}
	sk.cov = cov
}

// Build generates the θ RR samples for p under par. workers bounds the
// build parallelism (0 → GOMAXPROCS); the result is identical for
// any worker count because sample i always draws from stream Split(i)
// of the master generator and lands in slot i. stop, when non-nil,
// preempts the build (ErrPreempted).
func Build(p *diffusion.Problem, par Params, workers int, stop <-chan struct{}) (*Sketch, error) {
	par = par.withDefaults()
	theta := par.theta()
	if theta == 0 {
		return nil, errors.New("sketch: need epsilon > 0 and delta in (0,1)")
	}
	n := p.NumUsers()
	items := p.NumItems()
	if n == 0 || items == 0 {
		return nil, errors.New("sketch: empty problem")
	}

	// cumulative importance for the x ∝ w_x inverse-CDF draw
	cum := make([]float64, items)
	wsum := 0.0
	for x, w := range p.Importance {
		if w > 0 {
			wsum += w
		}
		cum[x] = wsum
	}

	sk := &Sketch{
		Users: n, Items: items,
		Seed: par.Seed, Epsilon: par.Epsilon, Delta: par.Delta,
		Theta: theta, WSum: wsum,
		ItemW:   append([]float64(nil), p.Importance...),
		Targets: make([]int64, theta),
	}
	sets := make([][]int64, theta)
	master := rng.New(par.Seed)

	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > theta {
		w = theta
	}
	if w < 1 {
		w = 1
	}

	var (
		next      int64
		preempted atomic.Bool
		wg        sync.WaitGroup
	)
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := newBuilder(p)
			for {
				if stop != nil {
					select {
					case <-stop:
						preempted.Store(true)
						return
					default:
					}
				}
				i := atomic.AddInt64(&next, 1) - 1
				if i >= int64(theta) {
					return
				}
				r := master.Split(uint64(i))
				sk.Targets[i], sets[i] = b.sample(r, cum, wsum)
			}
		}()
	}
	wg.Wait()
	if preempted.Load() {
		return nil, ErrPreempted
	}

	total := 0
	for _, s := range sets {
		total += len(s)
	}
	sk.Off = make([]int64, theta+1)
	sk.Pairs = make([]int64, 0, total)
	for i, s := range sets {
		sk.Pairs = append(sk.Pairs, s...)
		sk.Off[i+1] = int64(len(sk.Pairs))
	}
	sk.buildIndex()
	return sk, nil
}

// builder holds one worker's reusable RR-walk scratch.
type builder struct {
	p       *diffusion.Problem
	visited map[int64]struct{}
	queue   []qent
	out     []int64
	surv    []float64
}

type qent struct {
	key   int64
	depth int32
}

func newBuilder(p *diffusion.Problem) *builder {
	return &builder{p: p, visited: make(map[int64]struct{}, 64)}
}

// sample draws RR sample i from stream r. The draw order is fixed and
// documented (DESIGN.md §9) because it IS the determinism contract:
// target user first (uniform), target item second (inverse-CDF on
// cumulative importance; uniform when W = 0), then a FIFO reverse walk
// popping pairs in discovery order. For a popped (u, y) the in-arcs of
// u are visited in ascending source order (the CSR canonical order);
// per in-arc the direct purchase coin Pact·P0pref(u,y) is flipped
// first, then one association coin χ·Pact·P0pref(u,z)·rc0(z,y) per
// PIN row entry z of y, in row order. Bernoulli consumes no
// randomness for p ≤ 0 or p ≥ 1 — the same convention the forward
// simulator relies on. The returned pair list is sorted ascending.
func (b *builder) sample(r *rng.Rand, cum []float64, wsum float64) (target int64, pairs []int64) {
	p := b.p
	n := p.NumUsers()
	items := p.NumItems()

	v := r.Intn(n)
	var x int
	if wsum > 0 {
		t := r.Float64() * wsum
		x = sort.Search(items, func(i int) bool { return cum[i] > t })
		if x >= items {
			x = items - 1
		}
	} else {
		x = r.Intn(items)
	}

	maxDepth := int32(p.Params.MaxSteps)
	chi := p.Params.Chi

	clear(b.visited)
	b.queue = b.queue[:0]
	b.out = b.out[:0]

	root := pairKey(v, x, items)
	b.visited[root] = struct{}{}
	b.queue = append(b.queue, qent{key: root, depth: 0})
	b.out = append(b.out, root)

	for qi := 0; qi < len(b.queue); qi++ {
		cur := b.queue[qi]
		if cur.depth >= maxDepth {
			continue
		}
		u := int(cur.key / int64(items))
		y := int(cur.key % int64(items))
		prefY := p.BasePrefOf(u, y)
		arcs := p.G.In(u)
		pinRow := p.PIN.Row(y)
		pinInit := p.PIN.InitRow(y)
		// Survival thinning (DESIGN.md §9): the forward simulator skips a
		// promoter's whole event toward u — association coins included —
		// once u has adopted the promoted item z, so u's association
		// chances via cause z stop at u's own z-adoption. A reverse walk
		// cannot observe that temporal gate, so it thins instead: the
		// association coin via z from the i-th in-arc is scaled by the
		// mean-field probability ∏_{earlier arcs}(1 − Pact·P0pref(u,z))
		// that no earlier promoter already sold z to u directly. Without
		// the gate the sketch over-counts association mass badly in
		// saturating regimes; imdppbench -fig sketch holds the residual
		// to the (ε, δ) contract.
		surv := b.surv[:0]
		for range pinRow {
			surv = append(surv, 1)
		}
		b.surv = surv
		// The entry's coins come from a copy of r held in locals and
		// written back after the entry (DESIGN.md §9); push never draws.
		s := r.Stream()
		var hit bool
		for ai, src := range arcs.To {
			up := int(src)
			aw := arcs.W[ai]
			// direct purchase: u′ adopted y and promoted it to u
			if s, hit = s.Bernoulli(aw * prefY); hit {
				b.push(pairKey(up, y, items), cur.depth+1)
			}
			// association: u′ adopted a related item z, promoted z to u,
			// and the promotion triggered u's adoption of y — forward
			// probability χ·Pact·P0pref(u,z)·rc0(z,y), with rc0 symmetric
			// so y's merged row carries it
			if chi > 0 {
				base := chi * aw
				for j := range pinRow {
					z := int(pinRow[j].Y)
					prefZ := p.BasePrefOf(u, z)
					if rc := pinInit[j].RC; rc > 0 {
						if s, hit = s.Bernoulli(base * prefZ * rc * surv[j]); hit {
							b.push(pairKey(up, z, items), cur.depth+1)
						}
					}
					// same-event association is allowed forward (the
					// adoption check precedes both coins), so the thinning
					// advances after this arc's coin, not before
					surv[j] *= 1 - aw*prefZ
				}
			}
		}
		r.SetStream(s)
	}

	pairs = append([]int64(nil), b.out...)
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	return root, pairs
}

// push enqueues a discovered cause pair once.
func (b *builder) push(key int64, depth int32) {
	if _, ok := b.visited[key]; ok {
		return
	}
	b.visited[key] = struct{}{}
	b.queue = append(b.queue, qent{key: key, depth: depth})
	b.out = append(b.out, key)
}

// Scratch is reusable coverage-query state (one per estimator; not
// safe for concurrent use).
type Scratch struct {
	stamp   []uint32
	epoch   uint32
	covered []int32
}

// Estimate answers one σ query by coverage counting: which of the θ RR
// samples contain a seed pair. Covered samples are accumulated in
// ascending sample order, so the result is deterministic and
// independent of seed ordering. market restricts MarketSigma to
// samples whose target user it marks; perItem, when non-nil, receives
// the per-item adoption estimate (len Items, caller-zeroed). Pi is
// always 0 — π needs post-campaign state and stays with the MC engine.
func (sk *Sketch) Estimate(seeds []diffusion.Seed, market []bool, perItem []float64, sc *Scratch) diffusion.Estimate {
	if len(sc.stamp) < sk.Theta {
		sc.stamp = make([]uint32, sk.Theta)
		sc.epoch = 0
	}
	sc.epoch++
	sc.covered = sc.covered[:0]
	for _, s := range seeds {
		if s.User < 0 || s.User >= sk.Users || s.Item < 0 || s.Item >= sk.Items {
			continue
		}
		for _, i := range sk.cov[pairKey(s.User, s.Item, sk.Items)] {
			if sc.stamp[i] != sc.epoch {
				sc.stamp[i] = sc.epoch
				sc.covered = append(sc.covered, i)
			}
		}
	}
	sort.Slice(sc.covered, func(i, j int) bool { return sc.covered[i] < sc.covered[j] })

	var est diffusion.Estimate
	est.PerItem = perItem
	sigmaScale := sk.SigmaScale()
	// unweighted-count scale: E[adoptions] = n·W·E[I/w_x] under the
	// importance-proportional item draw; n·Items·E[I] under the uniform
	// fallback (W = 0, where σ itself is identically 0)
	uniformScale := 0.0
	if sk.WSum <= 0 && sk.Theta > 0 {
		uniformScale = float64(sk.Users) * float64(sk.Items) / float64(sk.Theta)
	}
	for _, i := range sc.covered {
		tu := int(sk.Targets[i] / int64(sk.Items))
		tx := int(sk.Targets[i] % int64(sk.Items))
		est.Sigma += sigmaScale
		if market == nil || (tu < len(market) && market[tu]) {
			est.MarketSigma += sigmaScale
		}
		count := uniformScale
		if sk.WSum > 0 {
			if w := sk.ItemW[tx]; w > 0 {
				count = sigmaScale / w
			}
		}
		est.Adoptions += count
		if perItem != nil {
			perItem[tx] += count
		}
	}
	return est
}
