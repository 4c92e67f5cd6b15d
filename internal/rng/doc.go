// Package rng provides fast, splittable pseudo-random number generation
// for Monte-Carlo influence simulation.
//
// The generator is xoshiro256**, seeded through splitmix64 so that any
// 64-bit master seed yields a well-mixed state. Streams derived with
// Split are statistically independent, which lets parallel Monte-Carlo
// workers draw from their own stream while keeping the overall
// experiment deterministic for a fixed master seed.
//
// Hot loops draw from a Stream: the generator state held by value in
// locals, taken from a Rand with Stream and written back with
// SetStream, so the compiler keeps it in registers across the loop.
// Stream.next (the one state transition), Stream.Bernoulli and
// (*Rand).Uint64 are kept under the compiler's inline budget, and every
// coin in the diffusion engine and the RR-sketch walk inlines
// Stream.Bernoulli. scripts/inline_check.sh (make inline-check) fails
// when any of that stops inlining, so check it after touching them.
// (*Rand).Bernoulli is over the budget, a call; no hot loop uses it.
// The output stream itself is pinned by TestKnownAnswer, and
// TestStreamMatchesRand pins the coin's outcomes and draw counts.
package rng
