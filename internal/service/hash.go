package service

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"

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
func (k Key) String() string {
	b := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(make([]byte, 0, 16), k.Hi), k.Lo)
	return string(hex.AppendEncode(make([]byte, 0, 32), b))
}

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

// HashRequest returns the content address of one solve request.
// Options are canonicalised first (WithDefaults), so a request
// relying on a default and one spelling it out — Seed 0 vs 1, MC 0
// vs 32 — share one key, as they run the bit-identical solve. The
// options come first, so it walks the whole problem each call.
func HashRequest(p *diffusion.Problem, opt core.Options, adaptive bool) Key {
	d := diffusion.NewDigest()
	d.Bool(adaptive)
	hashOptions(&d, opt.WithDefaults())
	p.HashTo(&d)
	return Key(d)
}

// HashProblem returns the content address of a Problem alone — the
// key under which the shard subsystem uploads a problem to remote
// estimator workers once and references it by hash thereafter. It
// covers everything the diffusion dynamics can observe (graph CSR,
// PIN rows and initial weights, the economic tables, budget, T,
// params), so two problems with equal keys estimate bit-identically;
// a worker recomputes the hash over the decoded upload, making the
// address self-verifying against codec drift. The substrate is walked
// once per substrate (Problem.ContentDigest), so a key over a warm
// substrate costs a dozen words.
func HashProblem(p *diffusion.Problem) Key { return Key(p.ContentDigest()) }

// ProblemKey returns HashProblem(p).String(), the content address of
// the grid and sketch cache lanes.
func ProblemKey(p *diffusion.Problem) string { return HashProblem(p).String() }

func hashOptions(d *diffusion.Digest, o core.Options) {
	d.Int(o.MC)
	d.Int(o.MCSI)
	d.U64(o.Seed)
	d.Int(o.Theta)
	d.Float(o.MIOAThreshold)
	d.Int(o.CandidateCap)
	d.Int(int(o.Cluster.Strategy))
	d.Int(o.Cluster.MaxHops)
	d.Float(o.Cluster.MinRelGap)
	d.Int(int(o.Order))
	d.Bool(o.DisableTargetMarkets)
	d.Bool(o.DisableItemPriority)
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
		d.U64(0x5253) // "RS" lane tag: sketch answers never alias MC
		d.Float(o.Epsilon)
		d.Float(o.Delta)
	}
}
