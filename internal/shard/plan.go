package shard

// Range is one shard's half-open global sample interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Span returns the number of samples in the range.
func (r Range) Span() int { return r.Hi - r.Lo }

// Plan partitions the global sample indices 0..m-1 into at most shards
// contiguous ranges, as evenly as possible (the first m%shards ranges
// hold one extra sample). Contiguity is what keeps the merge trivially
// ordered: concatenating the ranges' per-sample outcomes in plan order
// reconstructs the full sample sequence 0..m-1, so the coordinator's
// reduction visits samples in exactly the single-process order. Plan
// never returns an empty range; fewer than shards ranges come back
// when m < shards.
func Plan(m, shards int) []Range {
	if m <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if shards > m {
		shards = m
	}
	base, extra := m/shards, m%shards
	out := make([]Range, shards)
	lo := 0
	for i := range out {
		span := base
		if i < extra {
			span++
		}
		out[i] = Range{Lo: lo, Hi: lo + span}
		lo += span
	}
	return out
}
