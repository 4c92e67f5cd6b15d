package dataset

import (
	"fmt"
	"math"

	"imdpp/internal/diffusion"
	"imdpp/internal/graph"
	"imdpp/internal/kg"
	"imdpp/internal/pin"
	"imdpp/internal/rng"
)

// Spec parameterises a synthetic dataset.
type Spec struct {
	Name     string
	Users    int
	Items    int
	Directed bool

	// social network shape
	AttachM      int     // Barabási–Albert attachment degree
	AvgInfluence float64 // target mean P0act (Table II row)

	// KG shape
	Features   int  // FEATURE nodes
	Brands     int  // BRAND nodes
	Categories int  // CATEGORY nodes
	Extended   bool // six node/edge types (Yelp/Amazon) vs three (Douban/Gowalla)
	Ecosystems int  // cross-category complement clusters

	// item economics
	AvgImportance     float64 // target mean w_x (Table II row)
	UniformImportance bool    // Gowalla: random instead of price-like

	// seeding economics: costs are ∝ out-degree / preference [3],[67],
	// rescaled to mean AvgCost (default 12) with a floor of
	// MinCostFrac·AvgCost (default 1/12, i.e. absolute floor 1).
	AvgCost     float64
	MinCostFrac float64

	// diffusion params
	Params diffusion.Params

	Seed uint64
}

// Dataset bundles a generated problem with its spec. Budget and T on
// the Problem are zero; experiments set them per run.
type Dataset struct {
	Spec    Spec
	Problem *diffusion.Problem
	// MetaC / MetaS are the generated meta-graph lists, retained so
	// experiments can rebuild the PIN with a subset (Fig. 13).
	MetaC []*kg.MetaGraph
	MetaS []*kg.MetaGraph
}

// Generate builds a dataset from the spec.
func Generate(spec Spec) (*Dataset, error) {
	if spec.Users < 8 || spec.Items < 4 {
		return nil, fmt.Errorf("dataset %q: too small (users=%d items=%d)", spec.Name, spec.Users, spec.Items)
	}
	if spec.Params.MaxSteps == 0 {
		spec.Params = diffusion.DefaultParams()
	}
	r := rng.New(spec.Seed ^ 0x1234567)

	// --- social network ---------------------------------------------------
	wm := graph.WeightModel{Mean: spec.AvgInfluence, Jitter: 0.6}
	g := graph.BarabasiAlbert(spec.Users, spec.AttachM, spec.Directed, wm, r.Split(1))

	// --- knowledge graph ---------------------------------------------------
	kgraph, metaC, metaS, itemCat := buildKG(spec, r.Split(2))

	model, err := pin.NewModel(kgraph, metaC, metaS, nil)
	if err != nil {
		return nil, fmt.Errorf("dataset %q: %w", spec.Name, err)
	}

	// --- importance ---------------------------------------------------------
	imp := make([]float64, spec.Items)
	if spec.UniformImportance {
		for i := range imp {
			imp[i] = r.Uniform(0, 2*spec.AvgImportance)
		}
	} else {
		// price-like lognormal, rescaled to the target mean
		total := 0.0
		for i := range imp {
			imp[i] = r.LogNormal(0, 0.8)
			total += imp[i]
		}
		f := spec.AvgImportance * float64(spec.Items) / total
		for i := range imp {
			imp[i] *= f
		}
	}

	// --- preferences: users have 1-2 interest categories --------------------
	nCat := spec.Categories
	if nCat < 1 {
		nCat = 1
	}
	basePref := diffusion.NewMatrix(spec.Users, spec.Items)
	for u := 0; u < spec.Users; u++ {
		c1 := r.Intn(nCat)
		c2 := r.Intn(nCat)
		row := basePref.Row(u)
		for x := 0; x < spec.Items; x++ {
			p := 0.6 * r.Beta24()
			if itemCat[x] == c1 || itemCat[x] == c2 {
				p += 0.15 + 0.25*r.Float64()
			}
			if p > 1 {
				p = 1
			}
			row[x] = p
		}
	}

	// --- costs: ∝ out-degree / preference, calibrated mean -------------------
	avgCost := spec.AvgCost
	if avgCost <= 0 {
		avgCost = 12
	}
	minCost := spec.MinCostFrac * avgCost
	if minCost < 1 {
		minCost = 1
	}
	cost := diffusion.NewMatrix(spec.Users, spec.Items)
	var costSum float64
	var costN int
	for u := 0; u < spec.Users; u++ {
		deg := float64(g.OutDegree(u))
		pref := basePref.Row(u)
		row := cost.Row(u)
		for x := 0; x < spec.Items; x++ {
			c := (1 + deg) / (0.2 + pref[x])
			row[x] = c
			costSum += c
			costN++
		}
	}
	scale := avgCost * float64(costN) / costSum
	for u := 0; u < spec.Users; u++ {
		row := cost.Row(u)
		for x := range row {
			row[x] *= scale
			if row[x] < minCost {
				row[x] = minCost
			}
		}
	}

	p := &diffusion.Problem{
		Substrate: &diffusion.Substrate{G: g, KG: kgraph, PIN: model, Importance: imp, BasePref: basePref, Cost: cost},
		T:         1, Params: spec.Params,
	}
	return &Dataset{Spec: spec, Problem: p, MetaC: metaC, MetaS: metaS}, nil
}

// buildKG generates the heterogeneous information network and its
// meta-graphs. Items are organised in ecosystems (cross-category
// complement clusters, the "iPhone/AirPods/charger" pattern) and
// categories (substitute pools). Extended datasets add SHOP and CITY
// types so Yelp/Amazon report six node and edge types.
func buildKG(spec Spec, r *rng.Rand) (*kg.KG, []*kg.MetaGraph, []*kg.MetaGraph, []int) {
	b := kg.NewBuilder()
	tItem := b.NodeTypeID("ITEM")
	tFeature := b.NodeTypeID("FEATURE")
	tBrand := b.NodeTypeID("BRAND")
	tCategory := kg.NodeType(0)
	tShop, tCity, tTag := kg.NodeType(0), kg.NodeType(0), kg.NodeType(0)
	eSupports := b.EdgeTypeID("SUPPORTS")
	eMadeBy := b.EdgeTypeID("MADE_BY")
	ePairsWith := b.EdgeTypeID("PAIRS_WITH")
	var eInCategory, eSameFunc, eSoldBy kg.EdgeType
	if spec.Extended {
		tCategory = b.NodeTypeID("CATEGORY")
		tShop = b.NodeTypeID("SHOP")
		tCity = b.NodeTypeID("CITY")
		eInCategory = b.EdgeTypeID("IN_CATEGORY")
		eSameFunc = b.EdgeTypeID("SAME_FUNCTION")
		eSoldBy = b.EdgeTypeID("SOLD_BY")
	} else {
		// three node types (ITEM, FEATURE, BRAND) and three edge types
		tTag = tFeature
		_ = tTag
	}

	items := make([]int, spec.Items)
	for i := range items {
		items[i] = b.AddNode(tItem)
	}
	features := make([]int, max(spec.Features, 4))
	for i := range features {
		features[i] = b.AddNode(tFeature)
	}
	brands := make([]int, max(spec.Brands, 2))
	for i := range brands {
		brands[i] = b.AddNode(tBrand)
	}
	var categories, shops, cities []int
	nCat := max(spec.Categories, 2)
	if spec.Extended {
		categories = make([]int, nCat)
		for i := range categories {
			categories[i] = b.AddNode(tCategory)
		}
		shops = make([]int, max(spec.Items/10, 2))
		for i := range shops {
			shops[i] = b.AddNode(tShop)
		}
		cities = make([]int, 3)
		for i := range cities {
			cities[i] = b.AddNode(tCity)
		}
		for _, s := range shops {
			b.AddEdge(s, cities[r.Intn(len(cities))], eSoldBy)
		}
	}

	nEco := max(spec.Ecosystems, 2)
	itemCat := make([]int, spec.Items)
	itemEco := make([]int, spec.Items)
	for i := 0; i < spec.Items; i++ {
		cat := r.Intn(nCat)
		eco := r.Intn(nEco)
		itemCat[i] = cat
		itemEco[i] = eco
		// brand: ecosystems concentrate on a brand
		brand := brands[eco%len(brands)]
		if r.Float64() < 0.2 {
			brand = brands[r.Intn(len(brands))]
		}
		b.AddEdge(items[i], brand, eMadeBy)
		// features: a couple shared within the ecosystem + noise
		ecoFeat := features[eco%len(features)]
		b.AddEdge(items[i], ecoFeat, eSupports)
		for k := 0; k < 2; k++ {
			b.AddEdge(items[i], features[r.Intn(len(features))], eSupports)
		}
		if spec.Extended {
			b.AddEdge(items[i], categories[cat], eInCategory)
			b.AddEdge(items[i], shops[r.Intn(len(shops))], eSoldBy)
		}
	}
	// direct complement edges inside ecosystems, across categories
	for i := 0; i < spec.Items; i++ {
		for tries := 0; tries < 3; tries++ {
			j := r.Intn(spec.Items)
			if j != i && itemEco[j] == itemEco[i] && itemCat[j] != itemCat[i] {
				b.AddEdge(items[i], items[j], ePairsWith)
			}
		}
	}
	// direct substitute edges within categories (extended only has the
	// explicit SAME_FUNCTION type; the basic datasets express
	// substitutability through a category-like FEATURE hub below)
	var catHub []int
	if spec.Extended {
		for i := 0; i < spec.Items; i++ {
			for tries := 0; tries < 3; tries++ {
				j := r.Intn(spec.Items)
				if j != i && itemCat[j] == itemCat[i] && itemEco[j] != itemEco[i] {
					b.AddEdge(items[i], items[j], eSameFunc)
				}
			}
		}
	} else {
		// three-type datasets: one FEATURE hub per category; items of a
		// category support it, giving the substitutable meta-graph a
		// path shape over the same node types.
		catHub = make([]int, nCat)
		for c := range catHub {
			catHub[c] = b.AddNode(tFeature)
		}
		eCatOf := b.EdgeTypeID("CATEGORY_OF")
		_ = eCatOf
		for i := 0; i < spec.Items; i++ {
			b.AddEdge(items[i], catHub[itemCat[i]], eCatOf)
		}
	}

	g := b.Build()

	// --- meta-graphs --------------------------------------------------------
	var metaC, metaS []*kg.MetaGraph
	metaC = append(metaC,
		kg.PathMetaGraph("m1:common-feature", kg.Complementary, tItem, tFeature, eSupports, eSupports),
		kg.PathMetaGraph("m2:same-brand", kg.Complementary, tItem, tBrand, eMadeBy, eMadeBy),
		kg.DirectMetaGraph("m3:pairs-with", kg.Complementary, tItem, ePairsWith),
	)
	if spec.Extended {
		metaS = append(metaS,
			kg.PathMetaGraph("s1:same-category", kg.Substitutable, tItem, tCategory, eInCategory, eInCategory),
			kg.DirectMetaGraph("s2:same-function", kg.Substitutable, tItem, eSameFunc),
		)
	} else {
		eCatOf, _ := g.LookupEdgeType("CATEGORY_OF")
		metaS = append(metaS,
			kg.PathMetaGraph("s1:same-category-hub", kg.Substitutable, tItem, tFeature, eCatOf, eCatOf),
		)
	}
	return g, metaC, metaS, itemCat
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Clone returns a campaign (b, T) over the dataset's substrate: a
// shallow copy of the problem, so every clone shares the substrate's
// warm states, clean-target table and content digest (DESIGN.md §5).
func (d *Dataset) Clone(budget float64, T int) *diffusion.Problem {
	p := *d.Problem
	p.Budget = budget
	p.T = T
	return &p
}

// Stats summarises the dataset for Table II.
type Stats struct {
	Name          string
	NodeTypes     int
	Nodes         int
	Users         int
	Items         int
	EdgeTypes     int
	Edges         int
	Friendships   int
	Directed      bool
	AvgInfluence  float64
	AvgImportance float64
}

// Stats computes the Table II row of the dataset.
func (d *Dataset) Stats() Stats {
	p := d.Problem
	imp := 0.0
	for _, w := range p.Importance {
		imp += w
	}
	imp /= float64(len(p.Importance))
	friend := p.G.M()
	if !p.G.Directed() {
		friend /= 2
	}
	return Stats{
		Name:          d.Spec.Name,
		NodeTypes:     p.KG.NumNodeTypes(),
		Nodes:         p.KG.N() + p.G.N(),
		Users:         p.G.N(),
		Items:         p.KG.NumItems(),
		EdgeTypes:     p.KG.NumEdgeTypes(),
		Edges:         p.KG.M() + p.G.M(),
		Friendships:   friend,
		Directed:      p.G.Directed(),
		AvgInfluence:  math.Round(p.G.AvgInfluence()*1000) / 1000,
		AvgImportance: math.Round(imp*100) / 100,
	}
}
