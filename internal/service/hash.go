package service

import (
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
// The hash covers every input the solver can observe: the social
// graph's CSR adjacency, the merged per-item relevance rows and
// initial meta-graph weights of the PIN model, the importance /
// base-preference / cost tables, budget, T, the diffusion
// hyper-parameters, and every Options field that steers selection.
// Options.Workers, Options.Progress and Options.Backend are
// deliberately excluded — the §3 (and, for sharded backends, §7)
// contracts guarantee they cannot change the result.

// HashRequest returns the content address of one solve request: the
// problem's memoized content digest (Problem.ContentDigest), then the
// adaptive flag and the options. Options are canonicalised first
// (WithDefaults), so a request relying on a default and one spelling
// it out — Seed 0 vs 1, MC 0 vs 32 — share one key, as they run the
// bit-identical solve.
func HashRequest(p *diffusion.Problem, opt core.Options, adaptive bool) diffusion.Digest {
	d := p.ContentDigest()
	d.Bool(adaptive)
	hashOptions(&d, opt.WithDefaults())
	return d
}

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
	// there should share one cache entry. Epsilon/Delta are the
	// exception: they change the answer itself (approximate coverage
	// counts instead of exact simulation), so sketch requests hash
	// into their own cache lane below — gated on Epsilon > 0 so an MC
	// request mixes no sketch parameters (DESIGN.md §9).
	if o.Epsilon > 0 {
		d.U64(0x5253) // "RS" lane tag: sketch answers never alias MC
		d.Float(o.Epsilon)
		d.Float(o.Delta)
	}
}
