// Command dysimbench is the repository's benchmark of Dysim solves, end
// to end and layer by layer. One invocation runs one closed-loop
// workload in its own process:
//
//	dysimbench --workload <serve-mixed|shard-solve> --seed <n> --seconds <s> --trace <0|1>
//
// The seed fixes the operation list and --seconds sizes it (a whole
// number of cycles, never a timer). After timing, the outputs are
// checked against cold solves of the same instances. With --trace 0 the
// last line of standard output is the end-to-end result; with --trace 1
// it carries the per-layer metrics of a traced run, whose spans are
// written under $DYSIMBENCH_OUT (default .bench_build). NOTES.md describes the workloads and metrics;
// run.sh builds and runs it from a checkout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dysimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{scale: defaultScale, outDir: os.Getenv("DYSIMBENCH_OUT")}
	if cfg.outDir == "" {
		cfg.outDir = ".bench_build"
	}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "serve-mixed or shard-solve")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: fixes the operation list")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "nominal measured time: sizes the operation list")
	fs.IntVar(&trace, "trace", 0, "1 runs traced and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "dysimbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "dysimbench: %v\n", err)
		return 1
	}
	metrics := rep.e2e
	if cfg.trace {
		metrics = rep.layer
	}
	rec := rep.record(metrics)
	if cfg.trace {
		if err := rep.writeTrace(rec); err != nil {
			fmt.Fprintf(stderr, "dysimbench: %v\n", err)
			return 1
		}
	}
	for _, c := range rep.checks {
		if !c.OK {
			fmt.Fprintf(stderr, "dysimbench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	enc := json.NewEncoder(stdout)
	_ = enc.Encode(map[string]any{"record": rec})
	_ = enc.Encode(map[string]any{
		"correct":   rep.correct(),
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if !rep.correct() {
		return 1
	}
	return 0
}

// fingerprint identifies the machine a record was measured on.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func machine() fingerprint {
	fp := fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// runRecord is the stamped record printed before the result line.
type runRecord struct {
	Machine    fingerprint       `json:"machine"`
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Scale      float64           `json:"scale"`
	Trace      bool              `json:"trace"`
	Cycles     int               `json:"cycles"`
	Ops        int               `json:"ops"`
	WindowS    float64           `json:"window_s"`
	ClientsS   []float64         `json:"clients_s"`
	SolvesS    []float64         `json:"solves_s"`
	ResolvesS  []float64         `json:"resolves_s"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FailedFrac float64           `json:"failed_frac"`
	Samples    uint64            `json:"samples_simulated"`
	SigmaEvals int               `json:"sigma_evals"`
	GridHits   uint64            `json:"grid_hits"`
	Checks     []check           `json:"checks"`
	Metrics    map[string]metric `json:"metrics"`
	// the end-to-end metrics as wall-clock values, and the mean time of
	// the reference chunks they were scaled by (calib.go)
	RawMetrics map[string]metric `json:"raw_metrics"`
	RefSetupMs float64           `json:"ref_chunk_setup_ms"`
	RefRunMs   float64           `json:"ref_chunk_run_ms"`
}

func (r *report) record(metrics map[string]metric) runRecord {
	return runRecord{
		Machine: machine(), Workload: r.cfg.workload, Seed: r.cfg.seed,
		Seconds: r.cfg.seconds, Scale: r.cfg.scale, Trace: r.cfg.trace,
		Cycles: r.plan.Cycles, Ops: len(r.plan.Ops), WindowS: r.window.Seconds(),
		ClientsS: durationsS(r.clients),
		SolvesS:  r.walls(opCold), ResolvesS: r.walls(opNearDup),
		Attempted: r.attempted, Failed: r.failed,
		FailedFrac: float64(r.failed) / float64(max(1, r.attempted)),
		Samples:    r.samples, SigmaEvals: r.sigmaEvals, GridHits: r.gridHits,
		Checks: r.checks, Metrics: metrics,
		RawMetrics: r.raw, RefSetupMs: 1e3 * mean(r.setupRef.chunks), RefRunMs: 1e3 * mean(r.runRef.chunks),
	}
}

// writeTrace writes the traced run's spans, stamped with the record.
func (r *report) writeTrace(rec runRecord) error {
	dir := filepath.Join(r.cfg.outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	b, err := json.Marshal(map[string]any{"record": rec, "spans": r.spans, "obs_traces": r.obsTraces})
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
