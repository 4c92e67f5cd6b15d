package graph

import (
	"sort"
	"testing"
	"testing/quick"

	"imdpp/internal/rng"
)

// naiveEdge / naiveGraph retain the pre-CSR slice-of-slices layout as
// an executable reference for the flat representation: adjacency as
// one heap-allocated edge slice per vertex, with the same semantic
// contract (per-vertex arcs sorted by target, duplicates merged
// keeping the maximum weight).
type naiveEdge struct {
	to int32
	w  float64
}

type naiveGraph struct {
	n   int
	out [][]naiveEdge
	in  [][]naiveEdge
}

func buildNaive(n int, directed bool, from, to []int32, w []float64) *naiveGraph {
	ng := &naiveGraph{n: n, out: make([][]naiveEdge, n), in: make([][]naiveEdge, n)}
	add := func(u, v int32, wt float64) {
		ng.out[u] = append(ng.out[u], naiveEdge{to: v, w: wt})
		ng.in[v] = append(ng.in[v], naiveEdge{to: u, w: wt})
	}
	for i := range from {
		add(from[i], to[i], w[i])
		if !directed {
			add(to[i], from[i], w[i])
		}
	}
	canon := func(adj []naiveEdge) []naiveEdge {
		sort.Slice(adj, func(a, b int) bool { return adj[a].to < adj[b].to })
		var outAdj []naiveEdge
		for _, e := range adj {
			if k := len(outAdj); k > 0 && outAdj[k-1].to == e.to {
				if e.w > outAdj[k-1].w {
					outAdj[k-1].w = e.w
				}
				continue
			}
			outAdj = append(outAdj, e)
		}
		return outAdj
	}
	for v := 0; v < n; v++ {
		ng.out[v] = canon(ng.out[v])
		ng.in[v] = canon(ng.in[v])
	}
	return ng
}

func (ng *naiveGraph) bfsDepths(sources []int) []int {
	dist := make([]int, ng.n)
	for i := range dist {
		dist[i] = -1
	}
	var queue []int
	for _, s := range sources {
		if s >= 0 && s < ng.n && dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range ng.out[u] {
			if dist[e.to] < 0 {
				dist[e.to] = dist[u] + 1
				queue = append(queue, int(e.to))
			}
		}
	}
	return dist
}

// randomEdges draws a random multigraph, deliberately including
// duplicate arcs and scrambled insertion order so the property test
// exercises the sort+merge path.
func randomEdges(r *rng.Rand, n int) (from, to []int32, w []float64) {
	m := 1 + r.Intn(4*n)
	for i := 0; i < m; i++ {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		from = append(from, u)
		to = append(to, v)
		w = append(w, 0.05+0.9*r.Float64())
		if r.Float64() < 0.2 { // duplicate arc with a different weight
			from = append(from, u)
			to = append(to, v)
			w = append(w, 0.05+0.9*r.Float64())
		}
	}
	return from, to, w
}

// TestCSRMatchesNaiveReference pins the CSR graph — adjacency views
// and BFS — to the naive slice-of-slices reference on random directed
// and undirected multigraphs.
func TestCSRMatchesNaiveReference(t *testing.T) {
	master := rng.New(0xC5)
	f := func(seed uint64, dirRaw bool) bool {
		r := master.Split(seed)
		n := 2 + r.Intn(24)
		from, to, w := randomEdges(r, n)

		b := NewBuilder(n, dirRaw)
		for i := range from {
			b.AddEdge(int(from[i]), int(to[i]), w[i])
		}
		g := b.Build()
		ng := buildNaive(n, dirRaw, from, to, w)

		arcsEqual := func(a Arcs, ref []naiveEdge) bool {
			if len(a.To) != len(ref) {
				return false
			}
			for i, e := range ref {
				if a.To[i] != e.to || a.W[i] != e.w {
					return false
				}
			}
			return true
		}
		total := 0
		for v := 0; v < n; v++ {
			if !arcsEqual(g.Out(v), ng.out[v]) {
				t.Logf("out(%d): got %+v want %+v", v, g.Out(v), ng.out[v])
				return false
			}
			if !arcsEqual(g.In(v), ng.in[v]) {
				t.Logf("in(%d): got %+v want %+v", v, g.In(v), ng.in[v])
				return false
			}
			if g.OutDegree(v) != len(ng.out[v]) || g.InDegree(v) != len(ng.in[v]) {
				return false
			}
			total += len(ng.out[v])
		}
		if g.M() != total {
			t.Logf("M=%d want %d", g.M(), total)
			return false
		}

		src := int(seed) % n
		if src < 0 {
			src += n
		}
		gotD, wantD := g.BFSDepths([]int{src}), ng.bfsDepths([]int{src})
		for v := range wantD {
			if gotD[v] != wantD[v] {
				t.Logf("bfs depth[%d]: got %d want %d", v, gotD[v], wantD[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSortsNeighborsByTarget(t *testing.T) {
	b := NewBuilder(5, true)
	// inserted deliberately out of order
	b.AddEdge(0, 4, 0.4)
	b.AddEdge(0, 1, 0.1)
	b.AddEdge(0, 3, 0.3)
	b.AddEdge(0, 2, 0.2)
	g := b.Build()
	out := g.Out(0)
	wantTo := []int32{1, 2, 3, 4}
	wantW := []float64{0.1, 0.2, 0.3, 0.4}
	for i := range wantTo {
		if out.To[i] != wantTo[i] || out.W[i] != wantW[i] {
			t.Fatalf("out(0) not sorted by target: %+v", out)
		}
	}
}

func TestBuildMergesDuplicateArcs(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1, 0.3)
	b.AddEdge(0, 2, 0.5)
	b.AddEdge(0, 1, 0.8) // duplicate, higher weight wins
	b.AddEdge(0, 1, 0.1) // duplicate, lower weight loses
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("duplicates kept: M=%d want 2", g.M())
	}
	if g.OutDegree(0) != 2 {
		t.Fatalf("out-degree %d want 2", g.OutDegree(0))
	}
	out := g.Out(0)
	if out.To[0] != 1 || out.W[0] != 0.8 {
		t.Fatalf("merged arc wrong: %+v", out)
	}
	if in := g.In(1); in.Len() != 1 || in.W[0] != 0.8 {
		t.Fatalf("in-adjacency did not merge: %+v", in)
	}
}

func TestBuildMergesDuplicateArcsUndirected(t *testing.T) {
	b := NewBuilder(2, false)
	b.AddEdge(0, 1, 0.2)
	b.AddEdge(1, 0, 0.6) // same undirected edge, other orientation
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M=%d want 2 (one merged arc per direction)", g.M())
	}
	if w := g.Out(0).W[0]; w != 0.6 {
		t.Fatalf("merge did not keep max: %v", w)
	}
	if w := g.Out(1).W[0]; w != 0.6 {
		t.Fatalf("reverse direction inconsistent: %v", w)
	}
}
