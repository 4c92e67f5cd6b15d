package mioa

import (
	"math"
	"testing"
	"testing/quick"

	"imdpp/internal/graph"
	"imdpp/internal/rng"
)

func diamond() *graph.Graph {
	// 0→1 (0.8), 0→2 (0.5), 1→3 (0.5), 2→3 (0.9)
	b := graph.NewBuilder(4, true)
	b.AddEdge(0, 1, 0.8)
	b.AddEdge(0, 2, 0.5)
	b.AddEdge(1, 3, 0.5)
	b.AddEdge(2, 3, 0.9)
	return b.Build()
}

func TestProbabilitiesSingleSource(t *testing.T) {
	g := diamond()
	p := Probabilities(g, []int{0})
	want := []float64{1, 0.8, 0.5, 0.45} // best to 3 is 0→2→3
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("p[%d]=%v want %v", i, p[i], want[i])
		}
	}
}

func TestProbabilitiesMultiSource(t *testing.T) {
	g := diamond()
	p := Probabilities(g, []int{1, 2})
	if p[1] != 1 || p[2] != 1 {
		t.Fatalf("sources not 1: %v", p)
	}
	if math.Abs(p[3]-0.9) > 1e-12 {
		t.Fatalf("p[3]=%v", p[3])
	}
	if p[0] != 0 {
		t.Fatalf("unreachable p[0]=%v", p[0])
	}
}

func TestRegionThreshold(t *testing.T) {
	g := diamond()
	region := Region(g, []int{0}, 0.5)
	// includes 0 (1.0), 1 (0.8), 2 (0.5); excludes 3 (0.45)
	if len(region) != 3 || region[0] != 0 || region[1] != 1 || region[2] != 2 {
		t.Fatalf("region %v", region)
	}
	// default threshold keeps everything here
	region = Region(g, []int{0}, 0)
	if len(region) != 4 {
		t.Fatalf("default-threshold region %v", region)
	}
}

func TestRegionInvalidSource(t *testing.T) {
	g := diamond()
	region := Region(g, []int{-3, 99}, 0.5)
	if len(region) != 0 {
		t.Fatalf("region from invalid sources: %v", region)
	}
}

// naiveArc is one arc of the explicit arc list the reference search
// scans; an undirected edge is listed in both directions.
type naiveArc struct {
	u, v int
	w    float64
}

// naiveProbabilities is a quadratic Dijkstra over an arc list — no
// heap and no CSR, so it shares no code with Probabilities.
func naiveProbabilities(n int, arcs []naiveArc, sources []int) []float64 {
	prob := make([]float64, n)
	done := make([]bool, n)
	for _, s := range sources {
		prob[s] = 1
	}
	for {
		best, bu := 0.0, -1
		for v := 0; v < n; v++ {
			if !done[v] && prob[v] > best {
				best, bu = prob[v], v
			}
		}
		if bu < 0 {
			return prob
		}
		done[bu] = true
		for _, a := range arcs {
			if a.u == bu {
				if np := best * a.w; np > prob[a.v] {
					prob[a.v] = np
				}
			}
		}
	}
}

// TestProbabilitiesMatchNaive pins Probabilities to the naive
// reference on random directed and undirected multigraphs, from one
// and from two sources. Both maximise the same left-to-right product
// per path, so they agree bit for bit.
func TestProbabilitiesMatchNaive(t *testing.T) {
	master := rng.New(0x3104)
	f := func(seed uint64, directed, twoSources bool) bool {
		r := master.Split(seed)
		n := 2 + r.Intn(24)
		b := graph.NewBuilder(n, directed)
		var arcs []naiveArc
		for i, m := 0, r.Intn(4*n); i < m; i++ {
			u, v, w := r.Intn(n), r.Intn(n), 0.05+0.9*r.Float64()
			b.AddEdge(u, v, w)
			arcs = append(arcs, naiveArc{u, v, w})
			if !directed {
				arcs = append(arcs, naiveArc{v, u, w})
			}
		}
		sources := []int{r.Intn(n)}
		if twoSources {
			sources = append(sources, r.Intn(n))
		}
		got, want := Probabilities(b.Build(), sources), naiveProbabilities(n, arcs, sources)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Logf("n=%d sources=%v: p[%d] = %v, want %v", n, sources, v, got[v], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
