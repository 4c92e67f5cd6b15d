// Package rng provides fast, splittable pseudo-random number generation
// for Monte-Carlo influence simulation.
//
// The generator is xoshiro256**, seeded through splitmix64 so that any
// 64-bit master seed yields a well-mixed state. Streams derived with
// Split are statistically independent, which lets parallel Monte-Carlo
// workers draw from their own stream while keeping the overall
// experiment deterministic for a fixed master seed.
//
// Uint64 and Bernoulli are kept under the compiler's inline budget:
// they sit on the diffusion engine's per-coin path, and inlining them
// saves two calls per coin. scripts/inline_check.sh (make inline-check)
// fails when either stops inlining, so check it after touching them.
// The output stream itself is pinned by TestKnownAnswer.
package rng
