package graph

import (
	"imdpp/internal/rng"
)

// WeightModel controls how base influence strengths are assigned by the
// generators.
type WeightModel struct {
	// Mean is the target average influence strength (Table II row).
	Mean float64
	// Jitter is the relative spread: weights are drawn uniformly from
	// [Mean*(1-Jitter), Mean*(1+Jitter)] and clamped to (0,1].
	Jitter float64
	// WeightedCascade, when true, overrides Mean with 1/inDegree(v)
	// per arc u->v (the classic WC model), then rescales so the average
	// matches Mean.
	WeightedCascade bool
}

func (wm WeightModel) draw(r *rng.Rand) float64 {
	j := wm.Jitter
	if j < 0 {
		j = 0
	}
	w := wm.Mean * (1 - j + 2*j*r.Float64())
	if w <= 0 {
		w = 1e-6
	}
	if w > 1 {
		w = 1
	}
	return w
}

// BarabasiAlbert generates a preferential-attachment graph with n
// vertices, each new vertex attaching m edges. Social networks in the
// paper's datasets are heavy-tailed; BA reproduces that shape.
func BarabasiAlbert(n, m int, directed bool, wm WeightModel, r *rng.Rand) *Graph {
	if m < 1 {
		m = 1
	}
	if n < m+1 {
		n = m + 1
	}
	b := NewBuilder(n, directed)
	// repeated-endpoint list implements preferential attachment in O(1)
	targets := make([]int32, 0, 2*n*m)
	// seed clique over the first m+1 vertices
	for u := 0; u <= m; u++ {
		for v := 0; v < u; v++ {
			b.AddEdge(u, v, wm.draw(r))
			targets = append(targets, int32(u), int32(v))
		}
	}
	seen := make(map[int32]bool, m)
	for u := m + 1; u < n; u++ {
		for k := range seen {
			delete(seen, k)
		}
		for len(seen) < m {
			v := targets[r.Intn(len(targets))]
			if int(v) == u || seen[v] {
				continue
			}
			seen[v] = true
			b.AddEdge(u, int(v), wm.draw(r))
			targets = append(targets, int32(u), v)
		}
	}
	g := b.Build()
	if wm.WeightedCascade {
		g.rescaleWeightedCascade(wm.Mean)
	}
	return g
}

// ErdosRenyi generates G(n, p) with the given weight model. Intended
// for small test instances; it is O(n^2).
func ErdosRenyi(n int, p float64, directed bool, wm WeightModel, r *rng.Rand) *Graph {
	b := NewBuilder(n, directed)
	for u := 0; u < n; u++ {
		lo := u + 1
		if directed {
			lo = 0
		}
		for v := lo; v < n; v++ {
			if v == u {
				continue
			}
			if r.Float64() < p {
				b.AddEdge(u, v, wm.draw(r))
			}
		}
	}
	return b.Build()
}

// rescaleWeightedCascade sets each arc u->v to 1/inDegree(v), then
// rescales all weights so the global mean equals mean.
func (g *Graph) rescaleWeightedCascade(mean float64) {
	for v := 0; v < g.n; v++ {
		s, e := g.inOff[v], g.inOff[v+1]
		if s == e {
			continue
		}
		w := 1.0 / float64(e-s)
		for i := s; i < e; i++ {
			g.inW[i] = w
		}
	}
	// mirror into the out-arrays: arc u->v carries 1/inDegree(v)
	for i, v := range g.outTo {
		g.outW[i] = 1.0 / float64(g.inOff[v+1]-g.inOff[v])
	}
	if mean <= 0 {
		return
	}
	cur := g.AvgInfluence()
	if cur == 0 {
		return
	}
	f := mean / cur
	scale := func(ws []float64) {
		for i, w := range ws {
			w *= f
			if w > 1 {
				w = 1
			}
			ws[i] = w
		}
	}
	scale(g.outW)
	scale(g.inW)
}
