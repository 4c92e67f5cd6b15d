package cluster

import (
	"sort"

	"imdpp/internal/graph"
	"imdpp/internal/pin"
)

// Nominee is a candidate (user, item) pair.
type Nominee struct {
	User int `json:"user"`
	Item int `json:"item"`
}

// Strategy selects the clustering algorithm.
type Strategy uint8

// Available strategies.
const (
	Proximity Strategy = iota // POT-like, the default
	CoCluster                 // FGCC-like
)

// Options tune clustering. The solver replaces a zero-valued Options
// with DefaultOptions; in any other value it fills in only a
// non-positive MaxHops, keeping the Strategy and MinRelGap the caller
// set.
type Options struct {
	Strategy Strategy
	// MaxHops is the social distance within which two nominees' users
	// count as socially close (default 1; a non-positive value selects
	// it).
	MaxHops int
	// MinRelGap is the minimum r̄C−r̄S between two nominees' items for
	// them to be clustered together (default 0.02, a strictly
	// complementary-leaning pair; 0 lets complementary merely balance
	// substitutable). Nominees promoting the same item are always
	// compatible.
	MinRelGap float64
}

// DefaultOptions returns the defaults documented above. MaxHops is 1
// because heavy-tailed social graphs put most users within two hops of
// a hub — two-hop closeness would merge every nominee into one market.
// MinRelGap requires a strictly complementary-leaning pair.
func DefaultOptions() Options { return Options{MaxHops: 1, MinRelGap: 0.02} }

// Cluster partitions nominees into clusters. The result is a list of
// clusters, each a list of indices into the nominees slice, in
// deterministic order.
func Cluster(g *graph.Graph, model *pin.Model, nominees []Nominee, opt Options) [][]int {
	if len(nominees) == 0 {
		return nil
	}
	if opt.MaxHops <= 0 {
		opt.MaxHops = DefaultOptions().MaxHops
	}
	switch opt.Strategy {
	case CoCluster:
		return coCluster(g, model, nominees, opt)
	default:
		return proximityCluster(g, model, nominees, opt)
	}
}

// itemCompatible reports whether items x,y are complementary enough to
// share a target market under the static (initial-weight) relevance.
func itemCompatible(model *pin.Model, x, y int, minGap float64) bool {
	if x == y {
		return true
	}
	rc, rs := model.RelStatic(x, y)
	return rc-rs > minGap
}

// proximityCluster builds the nominee compatibility graph and returns
// its connected components.
func proximityCluster(g *graph.Graph, model *pin.Model, nominees []Nominee, opt Options) [][]int {
	near := socialNeighborhoods(g, nominees, opt.MaxHops)
	n := len(nominees)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !near(nominees[i].User, nominees[j].User) {
				continue
			}
			if itemCompatible(model, nominees[i].Item, nominees[j].Item, opt.MinRelGap) {
				union(i, j)
			}
		}
	}
	groups := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	return orderedClusters(groups)
}

// coCluster clusters users and items independently, then intersects.
func coCluster(g *graph.Graph, model *pin.Model, nominees []Nominee, opt Options) [][]int {
	near := socialNeighborhoods(g, nominees, opt.MaxHops)
	// user clusters: components of the "socially close" relation over
	// the distinct nominee users
	users := distinctUsers(nominees)
	uComp := components(len(users), func(i, j int) bool {
		return near(users[i], users[j])
	})
	userCluster := map[int]int{}
	for i, u := range users {
		userCluster[u] = uComp[i]
	}
	// item clusters: components of the complementary-relevance relation
	items := distinctItems(nominees)
	iComp := components(len(items), func(i, j int) bool {
		return itemCompatible(model, items[i], items[j], opt.MinRelGap)
	})
	itemCluster := map[int]int{}
	for i, x := range items {
		itemCluster[x] = iComp[i]
	}
	groups := map[int][]int{}
	for idx, nm := range nominees {
		key := userCluster[nm.User]*(len(items)+1) + itemCluster[nm.Item]
		groups[key] = append(groups[key], idx)
	}
	return orderedClusters(groups)
}

// socialNeighborhoods precomputes bounded-hop BFS balls around each
// distinct nominee user and returns a closeness predicate.
func socialNeighborhoods(g *graph.Graph, nominees []Nominee, maxHops int) func(u, v int) bool {
	ball := map[int]map[int]bool{}
	for _, nm := range nominees {
		if _, ok := ball[nm.User]; ok {
			continue
		}
		ball[nm.User] = bfsBall(g, nm.User, maxHops)
	}
	return func(u, v int) bool {
		if u == v {
			return true
		}
		if b, ok := ball[u]; ok && b[v] {
			return true
		}
		if b, ok := ball[v]; ok && b[u] {
			return true
		}
		return false
	}
}

func bfsBall(g *graph.Graph, s, maxHops int) map[int]bool {
	ball := map[int]bool{s: true}
	frontier := []int32{int32(s)}
	for h := 0; h < maxHops; h++ {
		var next []int32
		grow := func(vs []int32) {
			for _, v := range vs {
				if !ball[int(v)] {
					ball[int(v)] = true
					next = append(next, v)
				}
			}
		}
		for _, u := range frontier {
			grow(g.Out(int(u)).To)
			grow(g.In(int(u)).To)
		}
		frontier = next
	}
	return ball
}

func components(n int, related func(i, j int) bool) []int {
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	c := 0
	var stack []int
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = c
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for v := 0; v < n; v++ {
				if comp[v] < 0 && related(u, v) {
					comp[v] = c
					stack = append(stack, v)
				}
			}
		}
		c++
	}
	return comp
}

func distinctUsers(nominees []Nominee) []int {
	seen := map[int]bool{}
	var out []int
	for _, nm := range nominees {
		if !seen[nm.User] {
			seen[nm.User] = true
			out = append(out, nm.User)
		}
	}
	sort.Ints(out)
	return out
}

func distinctItems(nominees []Nominee) []int {
	seen := map[int]bool{}
	var out []int
	for _, nm := range nominees {
		if !seen[nm.Item] {
			seen[nm.Item] = true
			out = append(out, nm.Item)
		}
	}
	sort.Ints(out)
	return out
}

// orderedClusters converts the group map into a deterministic slice:
// clusters sorted by their smallest member index, members ascending.
func orderedClusters(groups map[int][]int) [][]int {
	out := make([][]int, 0, len(groups))
	for _, members := range groups {
		sort.Ints(members)
		out = append(out, members)
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}
