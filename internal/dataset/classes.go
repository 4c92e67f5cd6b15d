package dataset

import (
	"fmt"

	"imdpp/internal/diffusion"
	"imdpp/internal/graph"
	"imdpp/internal/kg"
	"imdpp/internal/pin"
	"imdpp/internal/rng"
)

// ClassSpec matches Table III: the five recruited classes of the
// course-promotion empirical study (Sec. VI-E).
type ClassSpec struct {
	ID    string
	Users int
	Edges int
}

// ClassSpecs returns the exact Table III sizes.
func ClassSpecs() []ClassSpec {
	return []ClassSpec{
		{"A", 33, 293},
		{"B", 26, 420},
		{"C", 22, 387},
		{"D", 20, 227},
		{"E", 20, 308},
	}
}

// courseNames are the 30 elective courses of the study; the paper
// names several explicitly (AI, OOP, big data, SDCC, cloud computing,
// IoT, DL, NLP, python, C++).
var courseNames = []string{
	"AI", "OOP", "BigData", "SDCC", "CloudComputing", "IoT",
	"DeepLearning", "NLP", "Python", "Cpp", "Databases", "OS",
	"Networks", "Compilers", "Security", "CompVision", "Robotics",
	"HCI", "Graphics", "Algorithms", "DistributedSystems", "MobileDev",
	"WebDev", "GameDesign", "DataMining", "Bioinformatics",
	"QuantumComputing", "Cryptography", "EmbeddedSystems", "DevOps",
}

// BuildClass generates one class: a dense directed social graph of the
// Table III size over a shared 30-course knowledge graph built from
// syllabus-like keywords, prerequisite links and research fields
// (substituting the crawled Taiwan University syllabi).
func BuildClass(spec ClassSpec, seed uint64) (*Dataset, error) {
	n := spec.Users
	if n < 4 {
		return nil, fmt.Errorf("dataset: class %s too small", spec.ID)
	}
	r := rng.New(seed ^ 0xC1A55)

	// social graph: directed ER calibrated to the edge count
	p := float64(spec.Edges) / float64(n*(n-1))
	if p > 1 {
		p = 1
	}
	wm := graph.WeightModel{Mean: 0.25, Jitter: 0.6}
	g := graph.ErdosRenyi(n, p, true, wm, r.Split(1))

	// course KG
	b := kg.NewBuilder()
	tItem := b.NodeTypeID("ITEM")
	tKeyword := b.NodeTypeID("KEYWORD")
	tField := b.NodeTypeID("FIELD")
	eCovers := b.EdgeTypeID("COVERS")
	ePrereq := b.EdgeTypeID("PREREQ_OF")
	eInField := b.EdgeTypeID("IN_FIELD")

	nCourses := len(courseNames)
	courses := make([]int, nCourses)
	for i := range courses {
		courses[i] = b.AddNode(tItem)
	}
	nKw := 18
	keywords := make([]int, nKw)
	for i := range keywords {
		keywords[i] = b.AddNode(tKeyword)
	}
	nFields := 6
	fields := make([]int, nFields)
	for i := range fields {
		fields[i] = b.AddNode(tField)
	}
	kr := r.Split(2)
	courseField := make([]int, nCourses)
	for i := 0; i < nCourses; i++ {
		f := i % nFields
		courseField[i] = f
		b.AddEdge(courses[i], fields[f], eInField)
		// 2-3 keywords; courses in the same field share a core keyword
		b.AddEdge(courses[i], keywords[f%nKw], eCovers)
		for k := 0; k < 2; k++ {
			b.AddEdge(courses[i], keywords[kr.Intn(nKw)], eCovers)
		}
	}
	// prerequisite chains within fields (complementary sequences)
	for i := 0; i < nCourses; i++ {
		j := (i + nFields) % nCourses
		if courseField[i] == courseField[j] && i != j {
			b.AddEdge(courses[i], courses[j], ePrereq)
		}
	}
	kgraph := b.Build()

	metaC := []*kg.MetaGraph{
		kg.PathMetaGraph("c1:shared-keyword", kg.Complementary, tItem, tKeyword, eCovers, eCovers),
		kg.DirectMetaGraph("c2:prerequisite", kg.Complementary, tItem, ePrereq),
	}
	metaS := []*kg.MetaGraph{
		kg.PathMetaGraph("s1:same-field-slot", kg.Substitutable, tItem, tField, eInField, eInField),
	}
	model, err := pin.NewModel(kgraph, metaC, metaS, nil)
	if err != nil {
		return nil, err
	}

	imp := make([]float64, nCourses)
	for i := range imp {
		imp[i] = 1 // every course selection counts equally in Fig. 12
	}
	pr := r.Split(3)
	basePref := diffusion.NewMatrix(n, nCourses)
	for u := 0; u < n; u++ {
		f1 := pr.Intn(nFields)
		row := basePref.Row(u)
		for x := 0; x < nCourses; x++ {
			v := 0.5 * pr.Beta24()
			if courseField[x] == f1 {
				v += 0.2 + 0.3*pr.Float64()
			}
			if v > 1 {
				v = 1
			}
			row[x] = v
		}
	}
	// costs: out-degree over initial preference (Sec. VI-E, following [3])
	cost := diffusion.NewMatrix(n, nCourses)
	for u := 0; u < n; u++ {
		deg := float64(g.OutDegree(u))
		pref := basePref.Row(u)
		row := cost.Row(u)
		for x := 0; x < nCourses; x++ {
			c := (1 + deg) / (0.2 + pref[x]) * 0.5
			if c < 1 {
				c = 1
			}
			row[x] = c
		}
	}

	prob := &diffusion.Problem{
		Substrate: &diffusion.Substrate{G: g, KG: kgraph, PIN: model, Importance: imp, BasePref: basePref, Cost: cost},
		T:         1, Params: diffusion.DefaultParams(),
	}
	spec2 := Spec{Name: "Class-" + spec.ID, Users: n, Items: nCourses, Directed: true}
	return &Dataset{Spec: spec2, Problem: prob, MetaC: metaC, MetaS: metaS}, nil
}

// CourseName returns the human-readable name of course x.
func CourseName(x int) string {
	if x >= 0 && x < len(courseNames) {
		return courseNames[x]
	}
	return fmt.Sprintf("Course-%d", x)
}
