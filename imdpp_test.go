package imdpp

import (
	"errors"
	"math"
	"testing"
)

// TestPublicAPIRoundTrip exercises the facade the way a downstream
// user would: build a dataset, solve, evaluate, compare to a baseline.
func TestPublicAPIRoundTrip(t *testing.T) {
	d, err := AmazonSampleDataset()
	if err != nil {
		t.Fatal(err)
	}
	p := d.Clone(100, 2)
	sol, err := Solve(p, Options{MC: 8, MCSI: 4, CandidateCap: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Seeds) == 0 || sol.Cost > p.Budget {
		t.Fatalf("solution: %+v", sol)
	}
	est := NewEstimator(p, 50, 9)
	if sigma := est.Sigma(sol.Seeds); sigma <= 0 {
		t.Fatalf("sigma %v", sigma)
	}
	bl, err := PS(p, BaselineOptions{MC: 8, Seed: 3, CandidateCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(bl.Seeds) == 0 {
		t.Fatal("baseline selected nothing")
	}
}

func TestPublicAPIDatasets(t *testing.T) {
	for _, build := range []func(Scale) (*Dataset, error){
		AmazonDataset, YelpDataset, DoubanDataset, GowallaDataset,
	} {
		d, err := build(0.15)
		if err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		if st.Users == 0 || st.Items == 0 {
			t.Fatalf("degenerate dataset %s", st.Name)
		}
	}

	// LoadDataset: 0 is full scale; a negative or non-finite scale is a
	// typed input error, never a silent full-scale build.
	if _, err := LoadDataset("amazon", 0.15); err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		d, err := LoadDataset("amazon", scale)
		if !errors.Is(err, &InputError{Field: "Scale"}) || d != nil {
			t.Errorf("LoadDataset(amazon, %g) = %v, %v; want an InputError on Scale", scale, d, err)
		}
	}
}

func TestPublicAPIClasses(t *testing.T) {
	specs := ClassSpecs()
	if len(specs) != 5 {
		t.Fatalf("%d classes", len(specs))
	}
	d, err := BuildClass(specs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Problem.KG.NumItems() != 30 {
		t.Fatalf("courses: %d", d.Problem.KG.NumItems())
	}
	if CourseName(0) == "" {
		t.Fatal("no course name")
	}
}

func TestPublicAPIState(t *testing.T) {
	d, err := AmazonSampleDataset()
	if err != nil {
		t.Fatal(err)
	}
	p := d.Clone(100, 1)
	st := NewState(p)
	est := NewEstimator(p, 10, 1)
	_ = est.Run(nil, nil, false)
	if st.Problem() != p {
		t.Fatal("state problem mismatch")
	}
	if DefaultParams().MaxSteps <= 0 {
		t.Fatal("bad default params")
	}
}
