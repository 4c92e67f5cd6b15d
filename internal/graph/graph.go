package graph

import (
	"fmt"
	"math"
	"sort"
)

// Arcs is a zero-copy view of one vertex's adjacency: parallel target
// and weight slices into the graph's packed CSR arrays. Neither slice
// may be modified. Iterate as
//
//	arcs := g.Out(u)
//	for i, v := range arcs.To {
//		w := arcs.W[i]
//		...
//	}
type Arcs struct {
	To []int32   // neighbour vertex ids, sorted ascending
	W  []float64 // parallel base influence strengths P0act in (0,1]
}

// Len returns the number of arcs in the view.
func (a Arcs) Len() int { return len(a.To) }

// Graph is a directed weighted graph over vertices 0..N-1. Undirected
// social networks are represented by storing both arc directions.
type Graph struct {
	n        int
	directed bool
	m        int // number of stored arcs after duplicate merging

	// out-adjacency CSR: arcs of u are outTo/outW[outOff[u]:outOff[u+1]]
	outOff []int32
	outTo  []int32
	outW   []float64
	// in-adjacency CSR, same layout keyed by target vertex
	inOff []int32
	inTo  []int32
	inW   []float64
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n        int
	directed bool
	from     []int32
	to       []int32
	w        []float64
}

// NewBuilder creates a builder for a graph with n vertices. If directed
// is false, AddEdge stores both directions with the same weight.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{n: n, directed: directed}
}

// AddEdge records an arc u->v with base influence strength w. For
// undirected graphs the reverse arc v->u is implied. It panics on
// out-of-range vertices; weight is clamped to (0,1].
func (b *Builder) AddEdge(u, v int, w float64) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, b.n))
	}
	if u == v {
		return // self-influence is meaningless in the diffusion model
	}
	if w <= 0 {
		w = 1e-9
	}
	if w > 1 {
		w = 1
	}
	b.from = append(b.from, int32(u))
	b.to = append(b.to, int32(v))
	b.w = append(b.w, w)
}

// Build finalises the graph into CSR form. Per-vertex adjacency is
// sorted by target id (the determinism contract — see the package
// doc), and duplicate arcs are merged keeping the maximum weight.
func (b *Builder) Build() *Graph {
	g := &Graph{n: b.n, directed: b.directed}

	// expand undirected edges into explicit arcs
	arcs := len(b.from)
	if !b.directed {
		arcs *= 2
	}
	if int64(arcs) > math.MaxInt32 {
		// the CSR offsets/cursors are int32; fail loudly instead of
		// wrapping into corrupt adjacency
		panic(fmt.Sprintf("graph: %d arcs exceed the int32 CSR offset range", arcs))
	}

	// counting sort by source into provisional out arrays
	deg := make([]int32, b.n+1)
	for i := range b.from {
		deg[b.from[i]+1]++
		if !b.directed {
			deg[b.to[i]+1]++
		}
	}
	off := make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		off[v+1] = off[v] + deg[v+1]
	}
	to := make([]int32, arcs)
	w := make([]float64, arcs)
	cursor := append([]int32(nil), off...)
	place := func(u, v int32, wt float64) {
		c := cursor[u]
		to[c] = v
		w[c] = wt
		cursor[u] = c + 1
	}
	for i := range b.from {
		place(b.from[i], b.to[i], b.w[i])
		if !b.directed {
			place(b.to[i], b.from[i], b.w[i])
		}
	}

	// per-vertex: sort by target, merge duplicates keeping max weight,
	// compacting in place
	outOff := make([]int32, b.n+1)
	write := int32(0)
	for v := 0; v < b.n; v++ {
		s, e := off[v], off[v+1]
		seg := arcSeg{to: to[s:e], w: w[s:e]}
		sort.Sort(seg)
		for i := s; i < e; i++ {
			if write > outOff[v] && to[write-1] == to[i] {
				if w[i] > w[write-1] {
					w[write-1] = w[i]
				}
				continue
			}
			to[write] = to[i]
			w[write] = w[i]
			write++
		}
		outOff[v+1] = write
	}
	g.outOff = outOff
	g.outTo = to[:write:write]
	g.outW = w[:write:write]
	g.m = int(write)
	g.buildIn()
	return g
}

// buildIn derives the in-adjacency CSR from the merged out-arcs:
// counting sort by target. Iterating sources in ascending order fills
// each in-segment in ascending source order, so in-lists come out
// sorted for free, and the out-merge already removed duplicates. It is
// shared by Build and Import so an imported graph reproduces the
// in-arrays of the original bit for bit.
func (g *Graph) buildIn() {
	inOff := make([]int32, g.n+1)
	for _, v := range g.outTo {
		inOff[v+1]++
	}
	for v := 0; v < g.n; v++ {
		inOff[v+1] += inOff[v]
	}
	g.inOff = inOff
	g.inTo = make([]int32, g.m)
	g.inW = make([]float64, g.m)
	cursor := append([]int32(nil), inOff...)
	for u := 0; u < g.n; u++ {
		for i := g.outOff[u]; i < g.outOff[u+1]; i++ {
			v := g.outTo[i]
			c := cursor[v]
			g.inTo[c] = int32(u)
			g.inW[c] = g.outW[i]
			cursor[v] = c + 1
		}
	}
}

// arcSeg sorts one vertex's (to, w) segment by target id. Duplicate
// targets stay adjacent in any relative order; the merge keeps the max
// weight, so the result does not depend on their ordering.
type arcSeg struct {
	to []int32
	w  []float64
}

func (s arcSeg) Len() int           { return len(s.to) }
func (s arcSeg) Less(i, j int) bool { return s.to[i] < s.to[j] }
func (s arcSeg) Swap(i, j int) {
	s.to[i], s.to[j] = s.to[j], s.to[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of stored arcs (an undirected edge counts twice).
func (g *Graph) M() int { return g.m }

// Directed reports whether the graph was built as directed.
func (g *Graph) Directed() bool { return g.directed }

// Out returns a view of the outgoing arcs of u, sorted by target. The
// view must not be modified.
func (g *Graph) Out(u int) Arcs {
	s, e := g.outOff[u], g.outOff[u+1]
	return Arcs{To: g.outTo[s:e], W: g.outW[s:e]}
}

// In returns a view of the incoming arcs of u, sorted by source. The
// view must not be modified.
func (g *Graph) In(u int) Arcs {
	s, e := g.inOff[u], g.inOff[u+1]
	return Arcs{To: g.inTo[s:e], W: g.inW[s:e]}
}

// OutDegree returns Out(u).Len().
func (g *Graph) OutDegree(u int) int { return int(g.outOff[u+1] - g.outOff[u]) }

// InDegree returns In(u).Len().
func (g *Graph) InDegree(u int) int { return int(g.inOff[u+1] - g.inOff[u]) }

// AvgInfluence returns the mean base influence strength over all arcs,
// the "Avg. initial influence strength" row of Table II.
func (g *Graph) AvgInfluence() float64 {
	if g.m == 0 {
		return 0
	}
	sum := 0.0
	for _, w := range g.outW {
		sum += w
	}
	return sum / float64(g.m)
}

// BFSDepths runs a breadth-first search from each source over outgoing
// arcs and returns hop distances (-1 when unreachable).
func (g *Graph) BFSDepths(sources []int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, len(sources))
	for _, s := range sources {
		if s >= 0 && s < g.n && dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, int32(s))
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, v := range g.outTo[g.outOff[u]:g.outOff[u+1]] {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// HopDistance returns the minimum hop count from u to v over outgoing
// arcs, or -1 when unreachable.
func (g *Graph) HopDistance(u, v int) int {
	if u == v {
		return 0
	}
	return g.BFSDepths([]int{u})[v]
}

// EccentricityFrom returns the maximum finite BFS depth from the
// sources, i.e. the radius of the region they reach. Target-market
// diameters d_tau are estimated this way.
func (g *Graph) EccentricityFrom(sources []int) int {
	dist := g.BFSDepths(sources)
	max := 0
	for _, d := range dist {
		if d > max {
			max = d
		}
	}
	return max
}

// Components returns a component id per vertex, ignoring direction.
func (g *Graph) Components() (comp []int, count int) {
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	for s := 0; s < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = count
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.outTo[g.outOff[u]:g.outOff[u+1]] {
				if comp[v] < 0 {
					comp[v] = count
					stack = append(stack, v)
				}
			}
			for _, v := range g.inTo[g.inOff[u]:g.inOff[u+1]] {
				if comp[v] < 0 {
					comp[v] = count
					stack = append(stack, v)
				}
			}
		}
		count++
	}
	return comp, count
}

// DegreeStats summarises the degree distribution.
type DegreeStats struct {
	MinOut, MaxOut int
	MeanOut        float64
}

// Degrees computes out-degree statistics.
func (g *Graph) Degrees() DegreeStats {
	st := DegreeStats{MinOut: math.MaxInt}
	total := 0
	for v := 0; v < g.n; v++ {
		d := g.OutDegree(v)
		total += d
		if d < st.MinOut {
			st.MinOut = d
		}
		if d > st.MaxOut {
			st.MaxOut = d
		}
	}
	if g.n > 0 {
		st.MeanOut = float64(total) / float64(g.n)
	} else {
		st.MinOut = 0
	}
	return st
}
