package core

import (
	"context"
	"time"

	"imdpp/internal/cluster"
	"imdpp/internal/diffusion"
	"imdpp/internal/gridcache"
	"imdpp/internal/sketch"
)

// OrderMetric selects how target markets within an overlap group G are
// ordered (Sec. VI-D).
type OrderMetric uint8

// Market ordering metrics.
const (
	OrderAE  OrderMetric = iota // antagonistic extent, ascending (default)
	OrderPF                     // profitability, descending
	OrderSZ                     // market size, descending
	OrderRMS                    // relative market share, descending
	OrderRD                     // random
)

func (m OrderMetric) String() string {
	switch m {
	case OrderAE:
		return "AE"
	case OrderPF:
		return "PF"
	case OrderSZ:
		return "SZ"
	case OrderRMS:
		return "RMS"
	default:
		return "RD"
	}
}

// Options configure a Dysim run. The zero value is usable; unset
// fields fall back to the defaults noted per field.
type Options struct {
	// MC is the Monte-Carlo sample count for σ evaluations during
	// nominee selection (default 32).
	MC int
	// MCSI is the sample count for SI evaluations in TDSI and for the
	// expected-perception estimate in DRE (default 16).
	MCSI int
	// Seed is the master RNG seed (default 1).
	Seed uint64
	// Theta is the common-user threshold θ for grouping overlapping
	// target markets (default 1).
	Theta int
	// MIOAThreshold is the path-probability cutoff when expanding
	// nominees into a target market (default 1/320).
	MIOAThreshold float64
	// CandidateCap bounds the nominee universe scanned by MCP
	// selection; the top candidates by outdeg·w_x·P0pref are kept
	// (default 512, ≤0 means no cap).
	CandidateCap int
	// Cluster configures nominee clustering.
	Cluster cluster.Options
	// Order selects the market-order metric (default AE).
	Order OrderMetric
	// DisableTargetMarkets runs the w/o TM ablation: all nominees form
	// a single target market.
	DisableTargetMarkets bool
	// DisableItemPriority runs the w/o IP ablation: DRE is skipped and
	// a market's items enter TDSI as one merged pool.
	DisableItemPriority bool
	// Workers bounds estimator parallelism (0 → GOMAXPROCS).
	Workers int
	// Epsilon, when > 0, selects the reverse-reachable sketch backend
	// (internal/sketch) for σ-only evaluations: answers are within
	// ε·n·W of the exact value with probability ≥ 1−Delta, where W is
	// the summed item importance. Unlike Backend, Epsilon IS
	// result-relevant — approximate answers are keyed separately by
	// the serving layer's content-address hash and never alias exact
	// MC results (DESIGN.md §9). 0 (the default) keeps the exact
	// Monte-Carlo engine and today's bit-identical behaviour. An
	// explicit Backend takes precedence over Epsilon.
	Epsilon float64
	// Delta is the failure probability of the (ε, δ) contract,
	// in (0, 1); 0 with Epsilon set selects the default 0.05. Only
	// meaningful alongside Epsilon.
	Delta float64
	// GridCache, when non-nil, memoizes raw per-sample outcome grids
	// across CELF waves and solver runs (internal/gridcache,
	// DESIGN.md §10): repeated (problem, seed, sample-range, group)
	// evaluations are served from the cache instead of re-simulated.
	// Memoization is exact under the §3 determinism contract —
	// cache-on and cache-off solves are bit-identical — so, like
	// Workers and Backend, GridCache is result-invariant and excluded
	// from the serving layer's content-address hash. The serving layer
	// wires one shared cache per daemon; library callers may pass
	// their own or leave it nil.
	GridCache *gridcache.Cache
	// Backend, when non-nil, constructs the σ/π estimation backend the
	// solver runs over — e.g. a sharded remote-worker estimator
	// (internal/shard) instead of the in-process batch engine. Every
	// conforming backend is result-invariant under the §3 determinism
	// contract (same problem, seed and sample count ⇒ bit-identical
	// estimates), so, like Workers and Progress, Backend is excluded
	// from the serving layer's content-address hash.
	Backend EstimatorFactory
	// Progress, when non-nil, receives solver progress events: one per
	// nominee selection, per TDSI assignment and per adaptive
	// promotion. Events are emitted synchronously from the solver
	// goroutine; the callback must be fast and must not call back into
	// the solver. Progress never affects the solve result — two runs
	// differing only in Progress return bit-identical Solutions — so
	// the serving layer excludes it from the content-address hash.
	Progress func(ProgressEvent)
}

// ProgressEvent is one solver progress report, for job-status
// streaming in the serving layer.
type ProgressEvent struct {
	// Phase is the solver stage: "select", "schedule" or "adaptive".
	Phase string `json:"phase"`
	// Round counts completed units within the phase: nominees selected,
	// seeds scheduled, or the current promotion index.
	Round int `json:"round"`
	// Spent is the budget consumed so far, where the phase tracks it.
	Spent float64 `json:"spent"`
	// Sigma is the best σ estimate observed so far (0 until known).
	Sigma float64 `json:"sigma"`
	// ElapsedNS is the monotonic time since the solve began, so
	// consumers can order and latency-attribute streamed events without
	// trusting wall clocks.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// WithDefaults returns the options with every zero-valued field
// replaced by its documented default — the canonical form a solver
// run actually executes with. The serving layer hashes this form so
// that, e.g., Seed 0 and Seed 1 (its default) share one cache entry.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.MC <= 0 {
		o.MC = 32
	}
	if o.MCSI <= 0 {
		o.MCSI = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Theta <= 0 {
		o.Theta = 1
	}
	if o.CandidateCap == 0 {
		o.CandidateCap = 512
	}
	if o.Cluster == (cluster.Options{}) {
		o.Cluster = cluster.DefaultOptions()
	} else if o.Cluster.MaxHops <= 0 {
		o.Cluster.MaxHops = cluster.DefaultOptions().MaxHops
	}
	if o.Epsilon > 0 && o.Delta == 0 {
		o.Delta = sketch.DefaultDelta
	}
	return o
}

// Market is one identified target market τ. JSON field names are a
// stable wire contract; the |V|-sized membership mask is derivable
// from Users and is excluded from serialization.
type Market struct {
	ID       int               `json:"id"`
	Nominees []cluster.Nominee `json:"nominees"`
	Users    []int             `json:"users"`    // MIOA region
	Mask     []bool            `json:"-"`        // len |V| membership mask
	Diameter int               `json:"diameter"` // d_τ: eccentricity from the nominee users
	Items    []int             `json:"items"`    // distinct items promoted by the nominees
	Ttau     int               `json:"t_tau"`    // promotional duration T_τ
	Group    int               `json:"group"`    // overlap-group id
	OrderKey float64           `json:"order_key"`
}

// Stats reports solver effort, for the execution-time figures. JSON
// field names are a stable wire contract; durations serialize as
// nanoseconds (Go time.Duration).
type Stats struct {
	SigmaEvals   int           `json:"sigma_evals"`
	SIEvals      int           `json:"si_evals"`
	NomineeCount int           `json:"nominee_count"`
	MarketCount  int           `json:"market_count"`
	GroupCount   int           `json:"group_count"`
	SelectTime   time.Duration `json:"select_time_ns"`
	MarketTime   time.Duration `json:"market_time_ns"`
	ScheduleTime time.Duration `json:"schedule_time_ns"`
	TotalTime    time.Duration `json:"total_time_ns"`
	// SamplesSimulated is the total number of Monte-Carlo campaign
	// simulations run across both estimators; with TotalTime it yields
	// the estimator throughput (samples/sec).
	SamplesSimulated uint64 `json:"samples_simulated"`
	// StateBytesPerWorker is the largest per-worker simulation-state
	// footprint observed across the solver's estimators (sparse State
	// layout: scales with cascade size, not |V|·|I|). States are pooled
	// per problem, so a state borrowed warm from an earlier query or
	// solve on the same problem counts with the rows it brought.
	StateBytesPerWorker uint64 `json:"state_bytes_per_worker"`
	// GridHits counts group evaluations served from the sample-grid
	// memoization cache (Options.GridCache) instead of simulated;
	// SamplesSaved is the campaign simulations those hits avoided.
	// Both are zero without a cache. They describe effort, not the
	// answer: cache-on and cache-off solves are bit-identical apart
	// from these counters and the timings.
	GridHits     uint64 `json:"grid_hits,omitempty"`
	SamplesSaved uint64 `json:"samples_saved,omitempty"`
}

// Solution is the output of a solver run. JSON field names are a
// stable wire contract shared by imdppd responses and imdpprun -json.
type Solution struct {
	Seeds   []diffusion.Seed `json:"seeds"`
	Cost    float64          `json:"cost"`
	Sigma   float64          `json:"sigma"` // final MC estimate of σ(Seeds)
	Markets []Market         `json:"markets,omitempty"`
	Stats   Stats            `json:"stats"`
}

// solver carries shared run state. Both estimators are held through
// the backend interface, so the whole pipeline — Solve, TDSI, the
// adaptive variant — runs unchanged over the in-process engine or a
// sharded remote backend (Options.Backend).
type solver struct {
	ctx   context.Context
	p     *diffusion.Problem
	opt   Options
	est   Estimator // MC-sample estimator for selection
	estSI Estimator // MCSI-sample estimator for DRE/TDSI
	stats Stats
	start time.Time // monotonic solve start, for ProgressEvent.ElapsedNS
}

func newSolver(ctx context.Context, p *diffusion.Problem, opt Options) *solver {
	opt = opt.withDefaults()
	s := &solver{ctx: ctx, p: p, opt: opt, start: time.Now()}
	backend := opt.backend()
	s.est = backend(p, opt.MC, opt.Seed, opt.Workers)
	s.est.Bind(ctx)
	s.estSI = backend(p, opt.MCSI, opt.Seed+0x9e37, opt.Workers)
	s.estSI.Bind(ctx)
	AttachGridCache(s.est, p, opt.GridCache)
	AttachGridCache(s.estSI, p, opt.GridCache)
	return s
}

// gridStatser is the optional estimator face reporting cache-served
// work, implemented by every backend that can host a grid view.
type gridStatser interface {
	GridStats() (hits, samplesSaved uint64)
}

// AttachGridCache wires a sample-grid memoization view for p into an
// estimator: directly for the Monte-Carlo engine (local or sharded;
// a sharded engine's remote rows bypass it, DESIGN.md §10), via the
// optional AttachGrid face for the sketch backend's embedded engine.
// A nil cache, a cache without a key function, or a backend with no
// attachment surface all leave est untouched.
func AttachGridCache(est Estimator, p *diffusion.Problem, c *gridcache.Cache) {
	v := c.View(p)
	if v == nil {
		return
	}
	switch t := est.(type) {
	case *diffusion.Estimator:
		t.Grid = v
	case interface{ AttachGrid(diffusion.GridCache) }:
		t.AttachGrid(v)
	}
}

// collectGridStats folds the estimators' cache-served counters into
// the run's Stats, tolerating backends without the optional face.
func (s *solver) collectGridStats() {
	for _, est := range []Estimator{s.est, s.estSI} {
		if gs, ok := est.(gridStatser); ok {
			h, sv := gs.GridStats()
			s.stats.GridHits += h
			s.stats.SamplesSaved += sv
		}
	}
}

// err reports the solver's cancellation state. Every selection /
// scheduling loop checks it at round boundaries; the estimators abort
// in-flight batches on the same context, so a cancelled solve returns
// within about one campaign simulation.
func (s *solver) err() error { return s.ctx.Err() }

// progress emits a solver progress event when a callback is set.
func (s *solver) progress(phase string, round int, spent, sigma float64) {
	if s.opt.Progress != nil {
		s.opt.Progress(ProgressEvent{
			Phase: phase, Round: round, Spent: spent, Sigma: sigma,
			ElapsedNS: time.Since(s.start).Nanoseconds(),
		})
	}
}

// sigma evaluates σ with the selection estimator, counting the call.
func (s *solver) sigma(seeds []diffusion.Seed) float64 {
	s.stats.SigmaEvals++
	return s.est.Sigma(seeds)
}

// sigmaBatch evaluates σ for every group in one batch over the shared
// worker pool, with common random numbers across groups.
func (s *solver) sigmaBatch(groups [][]diffusion.Seed) []float64 {
	s.stats.SigmaEvals += len(groups)
	return s.est.SigmaBatch(groups)
}

// celfWaveSize is how many stale CELF entries a re-evaluation wave
// refreshes in one batch. A wave of w candidates yields w·M work
// units, plenty to keep any pool busy, while the extra refreshes
// beyond the true top stay cheap (a refreshed gain is reused as a
// tighter upper bound in later rounds either way). It is a constant —
// not a function of Workers or GOMAXPROCS — so the refresh pattern,
// and with it the whole solver output, is identical on any machine.
const celfWaveSize = 8
