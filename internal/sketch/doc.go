// Package sketch is the reverse-reachable-sketch estimation backend:
// a TIM/IMM-style (ε, δ)-approximate σ oracle for the IMDPP diffusion,
// trading the Monte-Carlo engine's forward simulation cost for a
// one-time index build plus near-constant-time coverage counting per
// σ query. DESIGN.md §9 states the full accuracy contract; this
// comment is the short form.
//
// A sketch is θ reverse-reachable (RR) samples over the product graph
// V×I: sample i picks a target user uniformly and a target item
// proportionally to importance, then walks the social graph's in-arcs
// backwards, flipping the same Bernoulli coins the forward simulator
// would (purchase: Pact·P0pref; association: χ·Pact·P0pref·rc0),
// collecting every (user, item) pair whose adoption could have caused
// the target's. σ(S) is then estimated as n·W/θ times the number of
// samples whose RR set intersects S, where W = Σ_x w_x. Under
// Params.Static the diffusion is exactly an independent-cascade
// process on the product graph, making the estimate unbiased; for
// dynamic presets the (ε, δ) contract is validated empirically by
// imdppbench -fig sketch.
//
// Sample i draws from stream rng.New(seed).Split(i) — the same §3
// common-random-numbers discipline as the MC engine — so sketch
// construction is deterministic: same (problem, ε, δ, seed) ⇒
// identical index, across worker counts and machines. That is what
// makes a sketch content-addressable: cache.go keys it by the
// problem's content hash plus the sketch parameters.
//
// Estimator adapts a sketch to the solver's backend interface
// (core.Estimator): σ-only evaluations are answered by coverage
// counting; π-bearing evaluations and MeanWeights — which need real
// post-campaign state — delegate to an embedded Monte-Carlo engine.
package sketch
