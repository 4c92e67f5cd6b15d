// Command imdpprun solves one IMDPP instance with a chosen algorithm
// and prints the seed schedule and influence estimate.
//
// Usage:
//
//	imdpprun -dataset amazon -algo dysim -budget 500 -T 10
//	imdpprun -dataset yelp -algo bgrd -budget 200 -T 5 -evalmc 200
//	imdpprun -dataset sample -algo dysim -json   # machine-readable output
//	imdpprun -dataset amazon -workers http://hostA:8081,http://hostB:8081
//
// -workers fans the solver's σ/π estimation out over `imdppd -worker`
// processes (DESIGN.md §7); the result is bit-identical to a local
// run. It applies to the dysim and adaptive algorithms, which run
// through the estimator backend; the baselines always estimate
// locally.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"imdpp"
)

// runResult is the -json output: the solver's Solution (stable field
// names shared with the imdppd daemon) plus the run's context and the
// independent evaluation estimate.
type runResult struct {
	Algo      string         `json:"algo"`
	Dataset   string         `json:"dataset"`
	Elapsed   float64        `json:"elapsed_seconds"`
	Solution  imdpp.Solution `json:"solution"`
	Eval      imdpp.Estimate `json:"eval"` // independent-seed estimate of σ(Seeds)
	EvalMC    int            `json:"eval_mc"`
	EvalSeed  uint64         `json:"eval_seed"`
	SeedCount int            `json:"seed_count"`
}

func main() {
	name := flag.String("dataset", "amazon", "amazon|yelp|douban|gowalla|sample")
	algo := flag.String("algo", "dysim", "dysim|adaptive|bgrd|hag|ps|drhga")
	scale := flag.Float64("scale", 1.0, "dataset scale multiplier")
	budget := flag.Float64("budget", 500, "total budget b")
	promos := flag.Int("T", 10, "number of promotions")
	mc := flag.Int("mc", 24, "solver Monte-Carlo samples")
	evalMC := flag.Int("evalmc", 100, "evaluation Monte-Carlo samples")
	seed := flag.Uint64("seed", 1, "RNG master seed")
	asJSON := flag.Bool("json", false, "emit the result as JSON on stdout")
	workerURLs := flag.String("workers", "", "comma-separated shard worker base URLs (imdppd -worker); dysim/adaptive σ/π estimation fans out over them")
	flag.Parse()

	if *mc < 1 {
		fatal(&imdpp.InputError{Field: "MC", Reason: fmt.Sprintf("sample count %d < 1", *mc)})
	}
	if *evalMC < 1 {
		fatal(&imdpp.InputError{Field: "EvalMC", Reason: fmt.Sprintf("sample count %d < 1", *evalMC)})
	}

	d, err := imdpp.LoadDataset(*name, *scale)
	fatal(err)

	p := d.Clone(*budget, *promos)
	opt := imdpp.Options{MC: *mc, Seed: *seed}
	urls, err := imdpp.ParseShardWorkers(*workerURLs)
	if err != nil {
		fatal(fmt.Errorf("-workers: %w", err))
	}
	if len(urls) > 0 {
		pool := imdpp.NewShardPool(urls, nil)
		defer pool.Close()
		healthy := pool.Check(context.Background())
		fmt.Fprintf(os.Stderr, "imdpprun: shard pool: %d/%d workers healthy\n", healthy, pool.Size())
		opt.Backend = imdpp.ShardBackend(pool)
	}
	// one shared gate with the daemon: typed errors for bad budget/T/options
	fatal(imdpp.ValidateRequest(p, opt))

	start := time.Now()
	var sol imdpp.Solution
	switch strings.ToLower(*algo) {
	case "dysim":
		s, e := imdpp.Solve(p, opt)
		fatal(e)
		sol = s
	case "adaptive":
		opt.CandidateCap = 64
		s, e := imdpp.SolveAdaptive(p, opt)
		fatal(e)
		sol = s
	case "bgrd":
		s, e := imdpp.BGRD(p, imdpp.BaselineOptions{MC: *mc, Seed: *seed})
		fatal(e)
		sol = imdpp.Solution{Seeds: s.Seeds, Cost: p.SeedCost(s.Seeds), Sigma: s.Sigma}
	case "hag":
		s, e := imdpp.HAG(p, imdpp.BaselineOptions{MC: *mc, Seed: *seed})
		fatal(e)
		sol = imdpp.Solution{Seeds: s.Seeds, Cost: p.SeedCost(s.Seeds), Sigma: s.Sigma}
	case "ps":
		s, e := imdpp.PS(p, imdpp.BaselineOptions{MC: *mc, Seed: *seed})
		fatal(e)
		sol = imdpp.Solution{Seeds: s.Seeds, Cost: p.SeedCost(s.Seeds), Sigma: s.Sigma}
	case "drhga":
		s, e := imdpp.DRHGA(p, imdpp.BaselineOptions{MC: *mc, Seed: *seed})
		fatal(e)
		sol = imdpp.Solution{Seeds: s.Seeds, Cost: p.SeedCost(s.Seeds), Sigma: s.Sigma}
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	elapsed := time.Since(start)
	seeds := sol.Seeds

	est := imdpp.NewEstimator(p, *evalMC, *seed+1000)
	run := est.Run(seeds, nil, false)

	if *asJSON {
		out := runResult{
			Algo:      strings.ToLower(*algo),
			Dataset:   d.Spec.Name,
			Elapsed:   elapsed.Seconds(),
			Solution:  sol,
			Eval:      run,
			EvalMC:    *evalMC,
			EvalSeed:  *seed + 1000,
			SeedCount: len(seeds),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(out))
		return
	}

	fmt.Printf("%s on %s: %d seeds, cost %.1f/%.0f, σ = %.1f, %.1f adoptions, %v\n",
		*algo, d.Spec.Name, len(seeds), p.SeedCost(seeds), p.Budget,
		run.Sigma, run.Adoptions, elapsed.Round(time.Millisecond))

	sort.Slice(seeds, func(i, j int) bool {
		if seeds[i].T != seeds[j].T {
			return seeds[i].T < seeds[j].T
		}
		return seeds[i].User < seeds[j].User
	})
	for _, sd := range seeds {
		fmt.Printf("  t=%-3d user=%-6d item=%-4d cost=%.1f\n",
			sd.T, sd.User, sd.Item, p.CostOf(sd.User, sd.Item))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "imdpprun:", err)
		os.Exit(1)
	}
}
