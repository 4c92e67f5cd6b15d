package mioa

import (
	"sort"

	"imdpp/internal/graph"
)

// DefaultThreshold is the classic 1/320 path-probability cutoff used
// in the MIA/PMIA literature.
const DefaultThreshold = 1.0 / 320

// Region computes the influence region of the source users: all users
// whose maximum-influence path probability from any source is at least
// threshold. Sources always belong to their own region.
func Region(g *graph.Graph, sources []int, threshold float64) []int {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	prob := Probabilities(g, sources)
	var region []int
	for v, p := range prob {
		if p >= threshold {
			region = append(region, v)
		}
	}
	sort.Ints(region)
	return region
}

// Probabilities returns, per vertex, the best path probability from
// any of the sources (multi-source Dijkstra on the product metric).
func Probabilities(g *graph.Graph, sources []int) []float64 {
	prob := make([]float64, g.N())
	h := newHeap()
	for _, s := range sources {
		if s >= 0 && s < g.N() && prob[s] < 1 {
			prob[s] = 1
			h.push(int32(s), 1)
		}
	}
	for h.len() > 0 {
		v, p := h.pop()
		if p < prob[v] {
			continue
		}
		arcs := g.Out(int(v))
		for i, to := range arcs.To {
			np := p * arcs.W[i]
			if np > prob[to] {
				prob[to] = np
				h.push(to, np)
			}
		}
	}
	return prob
}

// --- tiny max-heap ----------------------------------------------------

type heapItem struct {
	v int32
	p float64
}

type maxHeap struct{ a []heapItem }

func newHeap() *maxHeap { return &maxHeap{} }

func (h *maxHeap) len() int { return len(h.a) }

func (h *maxHeap) push(v int32, p float64) {
	h.a = append(h.a, heapItem{v, p})
	i := len(h.a) - 1
	for i > 0 {
		par := (i - 1) / 2
		if h.a[par].p >= h.a[i].p {
			break
		}
		h.a[par], h.a[i] = h.a[i], h.a[par]
		i = par
	}
}

func (h *maxHeap) pop() (int32, float64) {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < last && h.a[l].p > h.a[big].p {
			big = l
		}
		if r < last && h.a[r].p > h.a[big].p {
			big = r
		}
		if big == i {
			break
		}
		h.a[i], h.a[big] = h.a[big], h.a[i]
		i = big
	}
	return top.v, top.p
}
