// Package wirebin holds the little-endian binary primitives shared by
// every wire codec in the repo: the shard RPC frames (internal/shard)
// and the per-layer payload codecs (graph CSR images, PIN relevance
// rows, diffusion sample grids). It is a byte
// appender/reader pair, not a serialisation framework: no reflection,
// no interfaces, no allocation beyond the destination slice — encoders
// are Append* functions growing a caller-owned []byte (pool it), and
// decoding goes through a Reader with a sticky error and hard bounds
// checks so corrupt or hostile input fails typed instead of panicking
// or over-allocating.
//
// Two encodings beyond fixed-width LE words do the heavy lifting:
//
//   - Uvarint/Varint: base-128 varints (Varint zig-zags first), used
//     for lengths, ids and deltas of sorted id lists.
//   - Float: a tagged float64 — values that are exactly small
//     non-negative integers (the common case for adoption counts)
//     encode as tag 0 + uvarint, everything else as tag 1 + raw IEEE
//     bits. The round trip is bit-exact for every float64 including
//     -0, NaN payloads and ±Inf, which is what lets the shard merge
//     stay on the DESIGN.md §7 bit-identity contract.
package wirebin
