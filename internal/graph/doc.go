// Package graph implements the social-network substrate for IMDPP:
// a compact directed weighted graph in true CSR (compressed sparse
// row) form, plus the traversals (BFS, hop distances) and statistics
// the Dysim pipeline needs. The maximum-influence-path search (Dijkstra
// on influence probabilities) lives in internal/mioa.
//
// Adjacency is stored as flat offset + packed parallel arrays — one
// `offsets []int32` and parallel `to []int32` / `w []float64` per
// direction — so neighbour iteration is a linear scan over contiguous
// memory with no per-vertex heap objects to pointer-chase.
//
// Determinism contract: within every vertex's adjacency, arcs are
// sorted by target id, fixed once at Build(). The diffusion engine
// draws one RNG variate per neighbour while iterating Out(u), so
// neighbour order is part of the reproducibility contract (DESIGN.md
// §3, §5): two graphs built from the same edge multiset — in any
// insertion order — propagate bit-identically. Duplicate arcs are
// merged at Build(), keeping the maximum weight.
//
// Edge weights carry the *initial* social influence strength
// P0act(u,v) in (0,1]. The diffusion engine layers a dynamic
// multiplier on top of these base weights (influence learning), so the
// graph itself is immutable after construction.
package graph
