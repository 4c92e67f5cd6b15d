package graph

import "fmt"

// Export is the serialisable image of a Graph: the out-adjacency CSR
// arrays exactly as stored. Because Build canonicalises adjacency
// (sorted by target, duplicates merged), the exported arrays are a
// canonical function of the edge multiset, and Import reproduces the
// original Graph — including the derived in-adjacency — bit for bit.
type Export struct {
	N        int
	Directed bool
	OutOff   []int32
	OutTo    []int32
	OutW     []float64
}

// Export returns the graph's CSR image. The slices are views of the
// graph's own arrays (zero-copy); callers must not modify them.
func (g *Graph) Export() Export {
	return Export{N: g.n, Directed: g.directed, OutOff: g.outOff, OutTo: g.outTo, OutW: g.outW}
}

// Import rebuilds a Graph from a CSR image, validating the structural
// invariants Build guarantees — monotone offsets, per-vertex targets
// strictly ascending and in range, no self-loops, weights in (0,1] —
// so a corrupt or hand-rolled payload cannot smuggle an adjacency the
// determinism contract (sorted-by-target iteration, DESIGN.md §5)
// does not cover. The in-adjacency is re-derived with the same
// counting sort Build uses, so the imported graph is indistinguishable
// from the original.
func Import(e Export) (*Graph, error) {
	if e.N < 0 {
		return nil, fmt.Errorf("graph: import: negative vertex count %d", e.N)
	}
	if len(e.OutOff) != e.N+1 {
		return nil, fmt.Errorf("graph: import: offsets len %d != n+1 = %d", len(e.OutOff), e.N+1)
	}
	m := len(e.OutTo)
	if len(e.OutW) != m {
		return nil, fmt.Errorf("graph: import: %d targets vs %d weights", m, len(e.OutW))
	}
	if e.OutOff[0] != 0 || int(e.OutOff[e.N]) != m {
		// unconditional (also for N==0, where it forces m==0): a
		// mismatched span would otherwise index out of range in buildIn
		return nil, fmt.Errorf("graph: import: offsets span [%d,%d], want [0,%d]", e.OutOff[0], e.OutOff[e.N], m)
	}
	for u := 0; u < e.N; u++ {
		s, t := e.OutOff[u], e.OutOff[u+1]
		if t < s {
			return nil, fmt.Errorf("graph: import: offsets not monotone at vertex %d", u)
		}
		for i := s; i < t; i++ {
			v := e.OutTo[i]
			if int(v) < 0 || int(v) >= e.N {
				return nil, fmt.Errorf("graph: import: arc target %d out of range n=%d", v, e.N)
			}
			if int(v) == u {
				return nil, fmt.Errorf("graph: import: self-loop at vertex %d", u)
			}
			if i > s && e.OutTo[i-1] >= v {
				return nil, fmt.Errorf("graph: import: vertex %d adjacency not strictly ascending", u)
			}
			// the inverted form also rejects NaN, for which both w <= 0
			// and w > 1 are false
			if w := e.OutW[i]; !(w > 0 && w <= 1) {
				return nil, fmt.Errorf("graph: import: arc weight %v outside (0,1]", w)
			}
		}
	}
	g := &Graph{
		n:        e.N,
		directed: e.Directed,
		m:        m,
		outOff:   append([]int32(nil), e.OutOff...),
		outTo:    append([]int32(nil), e.OutTo...),
		outW:     append([]float64(nil), e.OutW...),
	}
	g.buildIn()
	return g, nil
}
