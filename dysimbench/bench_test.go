package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// testScale shrinks the instances so a one-cycle run takes about a
// second.
const testScale = 0.1

func runSmall(t *testing.T, workload string, seed uint64) *report {
	t.Helper()
	rep, err := run(config{workload: workload, seed: seed, seconds: 0.1, scale: testScale})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !rep.correct() {
		t.Fatalf("%s seed %d: checks failed: %+v", workload, seed, rep.checks)
	}
	return rep
}

func opList(t *testing.T, pl *plan) string {
	t.Helper()
	b, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDeterministicCounts pins the benchmark's fixed-work contract: one
// seed run twice gives the same operation list, the same exact counts
// and the same spread, and another seed gives another operation list.
func TestDeterministicCounts(t *testing.T) {
	for _, w := range []string{"serve-mixed", "shard-solve"} {
		t.Run(w, func(t *testing.T) {
			a, b := runSmall(t, w, 11), runSmall(t, w, 11)
			if opList(t, a.plan) != opList(t, b.plan) {
				t.Error("same seed, different operation lists")
			}
			if a.samples != b.samples || a.sigmaEvals != b.sigmaEvals || a.gridHits != b.gridHits {
				t.Errorf("counts differ: samples %d/%d, σ evals %d/%d, grid hits %d/%d",
					a.samples, b.samples, a.sigmaEvals, b.sigmaEvals, a.gridHits, b.gridHits)
			}
			if math.Float64bits(a.spread) != math.Float64bits(b.spread) {
				t.Errorf("spread differs: %v vs %v", a.spread, b.spread)
			}
			if a.samples == 0 || a.sigmaEvals == 0 || a.spread <= 0 {
				t.Errorf("empty run: samples %d, σ evals %d, spread %v", a.samples, a.sigmaEvals, a.spread)
			}
			if w == "serve-mixed" && a.gridHits == 0 {
				t.Error("serve-mixed made no grid-cache hits")
			}
			other, err := newPlan(w, 12, 0.1, testScale)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := other.materialize(); err != nil {
				t.Fatal(err)
			}
			if opList(t, other) == opList(t, a.plan) {
				t.Error("another seed gave the same operation list")
			}
		})
	}
}

// TestUnknownWorkload checks the command refuses a workload it does not
// know without printing a result.
func TestUnknownWorkload(t *testing.T) {
	var out, errOut jsonBuffer
	if code := realMain([]string{"--workload", "bogus", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if len(out) != 0 {
		t.Fatalf("unknown workload printed %q", out)
	}
}

type jsonBuffer []byte

func (b *jsonBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// TestAttribute checks the span partition: nested time goes to the
// deepest span, concurrent siblings share it, and the layers of a root
// sum to its duration.
func TestAttribute(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "solve", Layer: layerCore, Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: layerShard, Start: 10, End: 90},
		{ID: 3, Parent: 2, Layer: layerWire, Start: 20, End: 60},
		{ID: 4, Parent: 2, Layer: layerWire, Start: 40, End: 80},
		{ID: 5, Parent: 4, Layer: layerDiffusion, Start: 50, End: 70},
	}
	got := attribute(spans, spans[:1])
	want := map[string]float64{
		layerCore:      20,
		layerShard:     20,
		layerWire:      45, // span 3: 20..40 alone plus half of 40..60; span 4: the rest outside its child
		layerDiffusion: 15, // half of 50..60, all of 60..70
	}
	total := 0.0
	for l, v := range got {
		total += v
		if w := want[l] / 1e9; math.Abs(v-w) > 1e-15 {
			t.Errorf("%s: got %v, want %v", l, v*1e9, want[l])
		}
	}
	if math.Abs(total-100e-9) > 1e-15 {
		t.Errorf("layers sum to %v ns, want 100", total*1e9)
	}
}

// TestTracedRun checks the traced run on every workload: its checks
// pass, every per-layer metric of BENCHMARK.json is reported, and the
// layers account for each solve's wall time.
func TestTracedRun(t *testing.T) {
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"serve-mixed", "shard-solve"} {
		t.Run(w, func(t *testing.T) {
			rep, err := run(config{workload: w, seed: 3, seconds: 0.1, scale: testScale, trace: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("checks failed: %+v", rep.checks)
			}
			for _, m := range spec.PerLayer {
				if _, ok := rep.layer[m.Name]; !ok {
					t.Errorf("per-layer metric %s not reported", m.Name)
				}
			}
			if len(rep.layer) != len(spec.PerLayer) {
				t.Errorf("reported %d per-layer metrics, BENCHMARK.json lists %d", len(rep.layer), len(spec.PerLayer))
			}
			if c := rep.layer["attrib.coverage"].Value; c < 0.95 {
				t.Errorf("layers account for %.3f of solve wall time, want ≥ 0.95", c)
			}
			if rep.layer["diffusion.calls"].Value == 0 {
				t.Error("no estimator calls recorded")
			}
		})
	}
}
