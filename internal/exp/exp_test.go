package exp

import (
	"strings"
	"testing"

	"imdpp/internal/diffusion"
)

// quickCfg is a minimal configuration for harness tests.
func quickCfg() Config {
	return Config{
		Scale:        0.2,
		EvalMC:       16,
		SolverMC:     8,
		SolverMCSI:   4,
		CandidateCap: 48,
		Seed:         1,
	}
}

func TestFigureAt(t *testing.T) {
	f := &Figure{Series: []Series{
		{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
	}}
	if v, ok := f.At("a", 2); !ok || v != 20 {
		t.Fatalf("At = %v/%v", v, ok)
	}
	if _, ok := f.At("a", 3); ok {
		t.Fatal("missing x found")
	}
	if _, ok := f.At("b", 1); ok {
		t.Fatal("missing series found")
	}
}

func TestRenderFigure(t *testing.T) {
	f := &Figure{
		ID: "X", Title: "test", XLabel: "b",
		Series: []Series{
			{Name: "s1", X: []float64{2, 1}, Y: []float64{4, 3}},
			{Name: "s2", X: []float64{1}, Y: []float64{9}},
		},
	}
	var sb strings.Builder
	renderFigure(&sb, f)
	out := sb.String()
	for _, want := range []string{"X: test", "s1", "s2", "9.00", "4.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// x values sorted ascending: "1" row before "2" row
	if strings.Index(out, "3.00") > strings.Index(out, "4.00") {
		t.Fatalf("x rows unsorted:\n%s", out)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1 || c.EvalMC != 64 || c.SolverMC != 24 || c.SolverMCSI != 8 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.CandidateCap != 384 || c.Seed != 1 || c.Out == nil {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestDatasetCacheByName(t *testing.T) {
	a, err := datasetByName("Yelp", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := datasetByName("Yelp", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache returned different instances")
	}
	if _, err := datasetByName("Nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunAlgoUnknown(t *testing.T) {
	cfg := quickCfg().withDefaults()
	d, err := datasetByName("Yelp", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Clone(100, 2)
	if _, err := cfg.runAlgo("nope", p, cfg.evaluator(p)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestTableIIRows(t *testing.T) {
	rows, err := TableII(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	order := []string{"Douban", "Gowalla", "Yelp", "Amazon"}
	for i, r := range rows {
		if r.Name != order[i] {
			t.Fatalf("row %d = %s", i, r.Name)
		}
	}
}

func TestTableIIIRows(t *testing.T) {
	rows, err := TableIII(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Users != 33 {
		t.Fatalf("class A users %d", rows[0].Users)
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fig, err := Fig12(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("%d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 5 {
			t.Fatalf("series %s has %d classes", s.Name, len(s.X))
		}
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %s has non-positive selections", s.Name)
			}
		}
	}
}

func TestFig13SubsetBuilder(t *testing.T) {
	d, err := datasetByName("Yelp", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		p, err := problemWithMetaSubset(d, k, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := map[int]int{1: 1, 2: 2, 3: 3}[k]
		if got := p.PIN.NumMeta(); got != want {
			t.Fatalf("k=%d → %d meta-graphs", k, got)
		}
	}
}

// TestFig13VariantKeepsDataset builds every Fig13 variant after the
// dataset's problem has been keyed: the dataset keeps its PIN and its
// content key, by the memo and by a full walk alike, and no variant
// takes the key of the dataset's own campaign.
func TestFig13VariantKeepsDataset(t *testing.T) {
	d, err := datasetByName("Yelp", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	model := d.Problem.PIN
	key := d.Problem.ContentDigest()
	for k := 1; k <= 3; k++ {
		p, err := problemWithMetaSubset(d, k, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		if d.Problem.PIN != model {
			t.Fatalf("k=%d: building the variant replaced the dataset's PIN", k)
		}
		// a full walk: the dataset's campaign over a new substrate with
		// its inputs, whose digest is not memoized
		s, cold := d.Problem.Substrate, *d.Problem
		cold.Substrate = &diffusion.Substrate{G: s.G, KG: s.KG, PIN: s.PIN, Importance: s.Importance, BasePref: s.BasePref, Cost: s.Cost}
		if d.Problem.ContentDigest() != key || cold.ContentDigest() != key {
			t.Fatalf("k=%d: building the variant moved the dataset's content key", k)
		}
		if p.ContentDigest() == d.Clone(100, 3).ContentDigest() {
			t.Fatalf("k=%d: the variant shares the dataset's content key", k)
		}
	}
}

func TestCaseStudiesHold(t *testing.T) {
	cs, err := CaseStudies(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 {
		t.Fatalf("found %d of 3 case studies", len(cs))
	}
	for _, c := range cs {
		if !c.Holds() {
			t.Fatalf("case study %d (%s) fails: %v → %v", c.ID, c.Name, c.Before, c.After)
		}
	}
}

func TestFig8bSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fig, err := Fig8b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// OPT must top or match every algorithm at every point (within MC
	// tolerance): allow 15% slack
	for _, s := range fig.Series {
		if s.Name == AlgoOPT {
			continue
		}
		for i, x := range s.X {
			opt, _ := fig.At(AlgoOPT, x)
			if s.Y[i] > opt*1.25+1 {
				t.Fatalf("%s at T=%v: %v far above OPT %v", s.Name, x, s.Y[i], opt)
			}
		}
	}
}
