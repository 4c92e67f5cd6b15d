package graph

import (
	"math"
	"testing"

	"imdpp/internal/rng"
)

// line builds the directed path 0→1→…→n-1 with weight w.
func line(n int, w float64) *Graph {
	b := NewBuilder(n, true)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, w)
	}
	return b.Build()
}

func TestBuilderDirected(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.25)
	g := b.Build()
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if g.OutDegree(0) != 1 || g.InDegree(0) != 0 {
		t.Fatalf("deg(0) out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	if out := g.Out(0); out.To[0] != 1 || out.W[0] != 0.5 {
		t.Fatalf("edge 0: %+v", out)
	}
	if in := g.In(2); in.To[0] != 1 {
		t.Fatalf("in(2): %+v", in)
	}
}

func TestBuilderUndirectedMirrors(t *testing.T) {
	b := NewBuilder(2, false)
	b.AddEdge(0, 1, 0.7)
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("undirected edge stored %d arcs", g.M())
	}
	if out := g.Out(1); out.To[0] != 0 || out.W[0] != 0.7 {
		t.Fatalf("reverse arc: %+v", out)
	}
}

func TestBuilderSelfLoopIgnored(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddEdge(0, 0, 1)
	if g := b.Build(); g.M() != 0 {
		t.Fatal("self loop stored")
	}
}

func TestBuilderClampsWeights(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddEdge(0, 1, 5)
	g := b.Build()
	if out := g.Out(0); out.W[0] != 1 {
		t.Fatalf("weight not clamped: %v", out.W[0])
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewBuilder(2, true).AddEdge(0, 5, 1)
}

func TestAvgInfluence(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1, 0.2)
	b.AddEdge(1, 2, 0.4)
	g := b.Build()
	if got := g.AvgInfluence(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("avg influence %v", got)
	}
}

func TestBFSDepths(t *testing.T) {
	g := line(5, 0.5)
	d := g.BFSDepths([]int{0})
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("depth[%d]=%d want %d", i, d[i], want)
		}
	}
	// unreachable direction
	d = g.BFSDepths([]int{4})
	if d[0] != -1 {
		t.Fatalf("expected unreachable, got %d", d[0])
	}
}

func TestBFSMultiSource(t *testing.T) {
	g := line(6, 0.5)
	d := g.BFSDepths([]int{0, 3})
	if d[4] != 1 || d[2] != 2 {
		t.Fatalf("multi-source depths: %v", d)
	}
}

func TestHopDistance(t *testing.T) {
	g := line(4, 0.5)
	if got := g.HopDistance(0, 3); got != 3 {
		t.Fatalf("hop 0→3 = %d", got)
	}
	if got := g.HopDistance(3, 0); got != -1 {
		t.Fatalf("hop 3→0 = %d", got)
	}
	if got := g.HopDistance(2, 2); got != 0 {
		t.Fatalf("hop self = %d", got)
	}
}

func TestEccentricity(t *testing.T) {
	g := line(5, 0.5)
	if got := g.EccentricityFrom([]int{0}); got != 4 {
		t.Fatalf("ecc = %d", got)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(5, true)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(2, 3, 0.5)
	g := b.Build()
	comp, n := g.Components()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] || comp[4] == comp[0] {
		t.Fatalf("component labels: %v", comp)
	}
}

func TestDegreesStats(t *testing.T) {
	g := line(4, 0.5)
	st := g.Degrees()
	if st.MinOut != 0 || st.MaxOut != 1 {
		t.Fatalf("stats %+v", st)
	}
	if math.Abs(st.MeanOut-0.75) > 1e-12 {
		t.Fatalf("mean %v", st.MeanOut)
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	r := rng.New(1)
	g := BarabasiAlbert(200, 3, false, WeightModel{Mean: 0.1, Jitter: 0.5}, r)
	if g.N() != 200 {
		t.Fatalf("n=%d", g.N())
	}
	_, nComp := g.Components()
	if nComp != 1 {
		t.Fatalf("BA graph has %d components", nComp)
	}
	st := g.Degrees()
	if st.MaxOut < 10 {
		t.Fatalf("no hub emerged: max degree %d", st.MaxOut)
	}
	avg := g.AvgInfluence()
	if math.Abs(avg-0.1) > 0.02 {
		t.Fatalf("avg influence %v, want ~0.1", avg)
	}
}

func TestBarabasiAlbertDirected(t *testing.T) {
	r := rng.New(2)
	g := BarabasiAlbert(100, 2, true, WeightModel{Mean: 0.2, Jitter: 0}, r)
	if !g.Directed() {
		t.Fatal("not directed")
	}
	// directed BA stores one arc per attachment
	if g.M() >= 2*(100*2) {
		t.Fatalf("too many arcs: %d", g.M())
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	r := rng.New(4)
	g := ErdosRenyi(100, 0.1, true, WeightModel{Mean: 0.5, Jitter: 0}, r)
	expected := 0.1 * 100 * 99
	if float64(g.M()) < expected*0.7 || float64(g.M()) > expected*1.3 {
		t.Fatalf("M=%d, expected ~%v", g.M(), expected)
	}
}

func TestWeightedCascadeRescale(t *testing.T) {
	r := rng.New(7)
	g := BarabasiAlbert(100, 3, false, WeightModel{Mean: 0.1, Jitter: 0, WeightedCascade: true}, r)
	avg := g.AvgInfluence()
	if math.Abs(avg-0.1) > 0.03 {
		t.Fatalf("WC rescaled avg %v", avg)
	}
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Out(u).W {
			if w <= 0 || w > 1 {
				t.Fatalf("weight out of range: %v", w)
			}
		}
	}
}
