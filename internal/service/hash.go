package service

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"weak"

	"imdpp/internal/core"
	"imdpp/internal/diffusion"
)

// Content addressing. DESIGN.md §3 pins the determinism contract: a
// solve is a pure function of (Problem, Options.Seed, sample counts,
// selection knobs) — bit-identical across worker counts, GOMAXPROCS
// and machines. That makes a solve request content-addressable: two
// requests with equal canonical hashes produce bit-identical
// Solutions, so the serving layer can both cache finished results and
// coalesce concurrent duplicates onto one in-flight solve.
//
// The hash walks every input the solver can observe: the social
// graph's CSR adjacency, the merged per-item relevance rows and
// initial meta-graph weights of the PIN model, the importance /
// base-preference / cost tables, budget, T, the diffusion
// hyper-parameters, and every Options field that steers selection.
// Options.Workers, Options.Progress and Options.Backend are
// deliberately excluded — the §3 (and, for sharded backends, §7)
// contracts guarantee they cannot change the result.

// Key is the 128-bit content address of a solve request.
type Key struct {
	Hi, Lo uint64
}

// String renders the key as 32 hex digits.
func (k Key) String() string { return fmt.Sprintf("%016x%016x", k.Hi, k.Lo) }

// ParseKey parses the 32-hex-digit form produced by Key.String — the
// content-address format the shard RPC passes problem references in.
// Parsing is strict (exactly 32 hex digits, no whitespace or signs),
// so distinct wire strings cannot alias to one key.
func ParseKey(s string) (Key, error) {
	if len(s) != 32 {
		return Key{}, fmt.Errorf("service: key %q is not 32 hex digits", s)
	}
	hi, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return Key{}, fmt.Errorf("service: bad key %q: %w", s, err)
	}
	lo, err := strconv.ParseUint(s[16:], 16, 64)
	if err != nil {
		return Key{}, fmt.Errorf("service: bad key %q: %w", s, err)
	}
	return Key{Hi: hi, Lo: lo}, nil
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// digest is a two-lane FNV-1a over 64-bit words (one multiply per
// word instead of per byte: the matrices dominate and hashing must
// stay cheap next to a solve). The second lane starts from a
// different offset and rotates between words so the lanes stay
// decorrelated, giving a 128-bit address.
type digest struct {
	a, b uint64
}

func newDigest() *digest {
	return &digest{a: fnvOffset, b: fnvOffset ^ 0x9e3779b97f4a7c15}
}

func (d *digest) u64(x uint64) {
	d.a = (d.a ^ x) * fnvPrime
	d.b = (d.b ^ x) * fnvPrime
	d.b = d.b<<13 | d.b>>51
}

func (d *digest) i64(x int)     { d.u64(uint64(int64(x))) }
func (d *digest) f64(x float64) { d.u64(math.Float64bits(x)) }

func (d *digest) f64s(xs []float64) {
	d.i64(len(xs))
	for _, x := range xs {
		d.f64(x)
	}
}

func (d *digest) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

// HashRequest returns the content address of one solve request.
// Options are canonicalised first (WithDefaults), so a request
// relying on a default and one spelling it out — Seed 0 vs 1, MC 0
// vs 32 — share one key, as they run the bit-identical solve.
func HashRequest(p *diffusion.Problem, opt core.Options, adaptive bool) Key {
	d := newDigest()
	d.bool(adaptive)
	hashOptions(d, opt.WithDefaults())
	hashProblem(d, p)
	return Key{Hi: d.a, Lo: d.b}
}

// HashProblem returns the content address of a Problem alone — the
// key under which the shard subsystem uploads a problem to remote
// estimator workers once and references it by hash thereafter. It
// covers everything the diffusion dynamics can observe (graph CSR,
// PIN rows and initial weights, the economic tables, budget, T,
// params), so two problems with equal keys estimate bit-identically;
// a worker recomputes the hash over the decoded upload, making the
// address self-verifying against codec drift.
func HashProblem(p *diffusion.Problem) Key {
	d := newDigest()
	hashProblem(d, p)
	return Key{Hi: d.a, Lo: d.b}
}

// problemKeys memoizes ProblemKey per live problem. It holds its
// problems weakly and drops an entry once its problem is collected, so
// it never keeps a problem (or the problem's state pool) alive.
var problemKeys = struct {
	sync.Mutex
	m map[weak.Pointer[diffusion.Problem]]string
}{m: make(map[weak.Pointer[diffusion.Problem]]string)}

// ProblemKey returns HashProblem(p).String(), hashing each live problem
// once. It is the content address of the grid and sketch cache lanes,
// which look it up on every σ query and every solve's estimator — and
// one hash costs more than a small σ query. Like those caches, it
// assumes a problem is not mutated once it has been keyed.
func ProblemKey(p *diffusion.Problem) string {
	k := weak.Make(p)
	problemKeys.Lock()
	key, ok := problemKeys.m[k]
	problemKeys.Unlock()
	if ok {
		return key
	}
	key = HashProblem(p).String()
	problemKeys.Lock()
	if _, ok := problemKeys.m[k]; !ok {
		problemKeys.m[k] = key
		runtime.AddCleanup(p, forgetProblemKey, k)
	}
	problemKeys.Unlock()
	return key
}

// forgetProblemKey drops a collected problem's memoized key.
func forgetProblemKey(k weak.Pointer[diffusion.Problem]) {
	problemKeys.Lock()
	delete(problemKeys.m, k)
	problemKeys.Unlock()
}

func hashOptions(d *digest, o core.Options) {
	d.i64(o.MC)
	d.i64(o.MCSI)
	d.u64(o.Seed)
	d.i64(o.Theta)
	d.f64(o.MIOAThreshold)
	d.i64(o.CandidateCap)
	d.i64(int(o.Cluster.Strategy))
	d.i64(o.Cluster.MaxHops)
	d.f64(o.Cluster.MinRelGap)
	d.i64(int(o.Order))
	d.bool(o.DisableTargetMarkets)
	d.bool(o.DisableItemPriority)
	// Workers, Progress, Backend-as-constructor and GridCache
	// intentionally omitted: none can affect the result under the
	// §3/§7/§10 determinism contracts, so requests that differ only
	// there should share one cache entry. Epsilon/Delta are the exception the PR-4 note
	// predates: they change the answer itself (approximate coverage
	// counts instead of exact simulation), so sketch requests hash
	// into their own cache lane below — gated on Epsilon > 0 so every
	// pre-epsilon request keeps its exact historical key (DESIGN.md
	// §9).
	if o.Epsilon > 0 {
		d.u64(0x5253) // "RS" lane tag: sketch answers never alias MC
		d.f64(o.Epsilon)
		d.f64(o.Delta)
	}
}

func hashProblem(d *digest, p *diffusion.Problem) {
	n := p.NumUsers()
	items := p.NumItems()
	d.i64(n)
	d.i64(items)
	d.bool(p.G.Directed())

	// social graph: CSR out-adjacency (arcs are sorted by target at
	// Build(), so equal edge multisets hash equally regardless of
	// insertion order — the same canonicalisation the determinism
	// contract relies on)
	for u := 0; u < n; u++ {
		arcs := p.G.Out(u)
		d.i64(arcs.Len())
		for i, v := range arcs.To {
			d.i64(int(v))
			d.f64(arcs.W[i])
		}
	}

	// PIN model: initial meta-graph weights plus the merged relevance
	// rows — everything the diffusion dynamics read from the
	// knowledge-graph side
	d.f64s(p.PIN.InitWeights)
	d.i64(p.PIN.NumC())
	for x := 0; x < items; x++ {
		row := p.PIN.Row(x)
		d.i64(len(row))
		for _, pr := range row {
			d.i64(int(pr.Y))
			d.i64(len(pr.Contribs))
			for _, c := range pr.Contribs {
				d.i64(int(c.Meta))
				d.f64(c.S)
			}
		}
	}

	d.f64s(p.Importance)
	for u := 0; u < n; u++ {
		d.f64s(p.BasePref.Row(u))
	}
	for u := 0; u < n; u++ {
		d.f64s(p.Cost.Row(u))
	}

	d.f64(p.Budget)
	d.i64(p.T)

	pr := p.Params
	d.f64(pr.Eta)
	d.f64(pr.Lambda)
	d.f64(pr.Gamma)
	d.f64(pr.Chi)
	d.i64(pr.MaxSteps)
	d.i64(int(pr.AIS))
	d.bool(pr.Static)
}
