// Package imdpp is a Go implementation of Influence Maximization based
// on Dynamic Personal Perception in Knowledge Graphs (IMDPP) and of
// the Dysim approximation algorithm, reproducing Teng et al.,
// ICDE 2021 (arXiv:2010.07125).
//
// IMDPP plans a campaign of T promotions over a social network: which
// items to promote, which users to hire as seeds (each with its own
// cost, under a total budget), and at which promotion to start each
// seed, maximizing the importance-weighted expected number of
// adoptions. The diffusion model couples four dynamic factors driven
// by a knowledge graph and per-user weighted meta-graphs: personal
// perception of complementary/substitutable item relationships,
// preference for items, social influence strength, and item
// associations.
//
// # Quickstart
//
//	d, _ := imdpp.AmazonDataset(1.0)       // synthetic Amazon-shaped workload
//	p := d.Clone(500, 10)                  // budget 500, 10 promotions
//	sol, _ := imdpp.Solve(p, imdpp.Options{})
//	est := imdpp.NewEstimator(p, 200, 42)
//	fmt.Println(est.Sigma(sol.Seeds))      // importance-aware influence
//
// The subpackages under internal implement the substrates (social
// graph, knowledge graph, personal item networks, diffusion engine,
// MIOA, clustering, baselines, datasets, experiment harness); this
// package re-exports the surface a downstream user needs.
package imdpp

import (
	"context"
	"fmt"
	"math"
	"strings"

	"imdpp/internal/baselines"
	"imdpp/internal/core"
	"imdpp/internal/dataset"
	"imdpp/internal/diffusion"
	"imdpp/internal/exp"
	"imdpp/internal/gridcache"
	"imdpp/internal/obs"
	"imdpp/internal/service"
	"imdpp/internal/shard"
	"imdpp/internal/sketch"
)

// Core problem and diffusion types.
type (
	// Problem is one IMDPP instance: social network, knowledge graph,
	// meta-graph model, importances, preferences, costs, budget and T.
	Problem = diffusion.Problem
	// Seed is one (user, item, promotion) element of a seed group.
	Seed = diffusion.Seed
	// Params are the diffusion-model hyper-parameters.
	Params = diffusion.Params
	// Estimator is the Monte-Carlo influence estimator.
	Estimator = diffusion.Estimator
	// Estimate is one Monte-Carlo estimate (σ, π, per-item adoptions).
	Estimate = diffusion.Estimate
	// State is one mutable simulation state, for scripted scenarios.
	State = diffusion.State
	// Matrix is the per-(user,item) accessor behind Problem.BasePref
	// and Problem.Cost.
	Matrix = diffusion.Matrix
)

// NewMatrix allocates a zeroed users×items matrix for custom Problems.
func NewMatrix(rows, cols int) Matrix { return diffusion.NewMatrix(rows, cols) }

// MatrixFrom wraps a row-major slice as a Matrix without copying.
func MatrixFrom(data []float64, cols int) Matrix { return diffusion.MatrixFrom(data, cols) }

// Dysim solver types.
type (
	// Options configure the Dysim solver.
	Options = core.Options
	// Solution is a solver result: seeds, cost, σ, markets, stats.
	Solution = core.Solution
	// Market is one identified target market.
	Market = core.Market
	// OrderMetric selects the target-market ordering (AE/PF/SZ/RMS/RD).
	OrderMetric = core.OrderMetric
	// ProgressEvent is one solver progress report (Options.Progress).
	ProgressEvent = core.ProgressEvent
	// InputError is a typed rejection of an out-of-range request
	// field, shared by the CLI front-ends and the serving layer.
	InputError = core.InputError
)

// ValidateRequest rejects a nil problem, negative budget, T < 1 and
// out-of-range Options with typed InputErrors — the single request
// gate shared by Solve, the CLIs and the serving layer.
func ValidateRequest(p *Problem, opt Options) error { return core.ValidateRequest(p, opt) }

// Market ordering metrics (Sec. VI-D of the paper).
const (
	OrderAE  = core.OrderAE
	OrderPF  = core.OrderPF
	OrderSZ  = core.OrderSZ
	OrderRMS = core.OrderRMS
	OrderRD  = core.OrderRD
)

// Baseline types.
type (
	// BaselineOptions configure the baseline solvers.
	BaselineOptions = baselines.Options
	// BaselineSolution is a baseline result.
	BaselineSolution = baselines.Solution
	// OPTOptions bound the brute-force optimum.
	OPTOptions = baselines.OPTOptions
)

// Dataset types.
type (
	// Dataset bundles a generated problem with its spec.
	Dataset = dataset.Dataset
	// DatasetSpec parameterises a synthetic dataset.
	DatasetSpec = dataset.Spec
	// DatasetStats is a Table II row.
	DatasetStats = dataset.Stats
	// Scale multiplies preset dataset sizes.
	Scale = dataset.Scale
)

// Experiment harness types.
type (
	// ExpConfig tunes the figure/table reproduction harness.
	ExpConfig = exp.Config
	// Figure is one reproduced plot.
	Figure = exp.Figure
	// CaseStudy is one Sec. VI-F qualitative dynamic.
	CaseStudy = exp.CaseStudy
)

// DefaultParams returns the diffusion defaults documented in DESIGN.md.
func DefaultParams() Params { return diffusion.DefaultParams() }

// Solve runs Dysim on the problem.
func Solve(p *Problem, opt Options) (Solution, error) { return core.Solve(p, opt) }

// SolveCtx is Solve with cancellation: the solver aborts within about
// one campaign simulation of ctx firing and returns ctx.Err(). A
// completed solve is bit-identical to Solve.
func SolveCtx(ctx context.Context, p *Problem, opt Options) (Solution, error) {
	return core.SolveCtx(ctx, p, opt)
}

// SolveAdaptive runs the adaptive variant of Dysim (Sec. V-D: no
// predefined budget allocation across promotions).
func SolveAdaptive(p *Problem, opt Options) (Solution, error) { return core.SolveAdaptive(p, opt) }

// SolveAdaptiveCtx is SolveAdaptive with cancellation, under the same
// contract as SolveCtx.
func SolveAdaptiveCtx(ctx context.Context, p *Problem, opt Options) (Solution, error) {
	return core.SolveAdaptiveCtx(ctx, p, opt)
}

// NewEstimator creates a Monte-Carlo influence estimator with m
// samples and the given master seed.
func NewEstimator(p *Problem, m int, seed uint64) *Estimator {
	return diffusion.NewEstimator(p, m, seed)
}

// NewState allocates a simulation state for scripted scenarios.
func NewState(p *Problem) *State { return diffusion.NewState(p) }

// Baselines.
var (
	// BGRD is the utility-driven bundle baseline [38].
	BGRD = baselines.BGRD
	// HAG is the user-item pair greedy baseline [37].
	HAG = baselines.HAG
	// PS is the path-based single-seed baseline [35].
	PS = baselines.PS
	// DRHGA is the per-item greedy baseline [19].
	DRHGA = baselines.DRHGA
	// OPT is the bounded brute-force optimum.
	OPT = baselines.OPT
)

// Dataset builders (synthetic, Table II / Table III shaped).
var (
	// AmazonDataset builds the Amazon-shaped dataset at the scale.
	AmazonDataset = dataset.Amazon
	// YelpDataset builds the Yelp-shaped dataset.
	YelpDataset = dataset.Yelp
	// DoubanDataset builds the Douban-shaped dataset.
	DoubanDataset = dataset.Douban
	// GowallaDataset builds the Gowalla-shaped dataset.
	GowallaDataset = dataset.Gowalla
	// AmazonSampleDataset builds the 100-user sample used against OPT.
	AmazonSampleDataset = dataset.AmazonSample
	// GenerateDataset builds a dataset from a custom spec.
	GenerateDataset = dataset.Generate
	// BuildClass builds one empirical-study class (Table III).
	BuildClass = dataset.BuildClass
	// ClassSpecs returns the Table III class sizes.
	ClassSpecs = dataset.ClassSpecs
	// CourseName resolves a course item id to its human-readable name.
	CourseName = dataset.CourseName
)

// LoadDataset resolves a preset dataset by name — "amazon", "yelp",
// "douban", "gowalla" or "sample" (the 100-user Amazon sample; its
// scale is fixed) — at the given scale multiplier. It is the single
// name→dataset mapping shared by the imdpprun CLI and the imdppd
// daemon. Scale 0 selects full scale; a negative or non-finite scale
// is an InputError.
func LoadDataset(name string, scale float64) (*Dataset, error) {
	if !(scale >= 0 && scale <= math.MaxFloat64) {
		return nil, &InputError{Field: "Scale", Reason: fmt.Sprintf("%g: want a finite value ≥ 0", scale)}
	}
	s := Scale(scale)
	switch strings.ToLower(name) {
	case "amazon":
		return AmazonDataset(s)
	case "yelp":
		return YelpDataset(s)
	case "douban":
		return DoubanDataset(s)
	case "gowalla":
		return GowallaDataset(s)
	case "sample":
		return AmazonSampleDataset()
	default:
		return nil, fmt.Errorf("imdpp: unknown dataset %q (want amazon|yelp|douban|gowalla|sample)", name)
	}
}

// Serving layer (package service): a bounded job queue over a solver
// worker pool with prompt cancellation, a content-addressed LRU
// result cache and in-flight coalescing — the subsystem behind the
// imdppd daemon.
type (
	// Service runs campaign solves asynchronously.
	Service = service.Service
	// ServiceConfig sizes the service (workers, queue, cache).
	ServiceConfig = service.Config
	// ServiceRequest is one solve submission.
	ServiceRequest = service.Request
	// ServiceMetrics is a snapshot of the service counters.
	ServiceMetrics = service.Metrics
	// Job is one asynchronous solve tracked by a Service.
	Job = service.Job
	// JobView is the JSON-able snapshot of a Job.
	JobView = service.JobView
	// JobStatus is the lifecycle state of a Job.
	JobStatus = service.Status
	// SolveKey is the 128-bit content address of a solve request.
	SolveKey = service.Key
	// TenantQuota bounds one tenant's share of the service: DRR weight,
	// queue depth and in-flight concurrency (DESIGN.md §12).
	TenantQuota = service.TenantQuota
	// TenantMetrics is one tenant's scheduling counters (/metrics "tenants").
	TenantMetrics = service.TenantMetrics
	// QuotaError is a typed shed rejection bearing a Retry-After
	// estimate; it satisfies errors.Is(err, ErrQueueFull).
	QuotaError = service.QuotaError
	// JobEvent is one entry in a job's retained event log — the payload
	// of the daemon's SSE stream.
	JobEvent = service.Event
)

// DefaultTenant is the tenant requests without one are accounted under.
const DefaultTenant = service.DefaultTenant

// QuotaError shed codes.
const (
	ShedQueueFull     = service.ShedQueueFull
	ShedQuotaExceeded = service.ShedQuotaExceeded
)

// ParseTenantQuotas parses the -tenant-quotas flag syntax
// (name:weight[:max_queue[:max_inflight]], comma-separated; name
// "default" sets the quota unlisted tenants get) into
// ServiceConfig.Tenants / ServiceConfig.DefaultQuota.
var ParseTenantQuotas = service.ParseTenantQuotas

// Job lifecycle states.
const (
	JobQueued    = service.StatusQueued
	JobRunning   = service.StatusRunning
	JobDone      = service.StatusDone
	JobFailed    = service.StatusFailed
	JobCancelled = service.StatusCancelled
)

// Serving-layer errors and constructors.
var (
	// NewService starts a campaign-solving service.
	NewService = service.New
	// ErrQueueFull rejects submissions beyond the bounded job queue.
	ErrQueueFull = service.ErrQueueFull
	// ErrServiceClosed rejects submissions after Close.
	ErrServiceClosed = service.ErrClosed
	// HashSolveRequest returns the content address of a solve request
	// — the cache/coalescing key, exploiting the determinism contract
	// (DESIGN.md §3).
	HashSolveRequest = service.HashRequest
	// HashProblem returns the content address of a Problem alone — the
	// key the shard subsystem uploads problems to workers under.
	HashProblem = service.HashProblem
)

// Sharded estimation (package shard, DESIGN.md §7): fan σ/π batches
// out over remote estimator workers, bit-identical to single-process.
type (
	// SolverEstimator is the estimation-backend interface the solver
	// pipeline consumes (Options.Backend / ServiceConfig.Backend).
	SolverEstimator = core.Estimator
	// EstimatorFactory constructs the estimation backend for one
	// solver run.
	EstimatorFactory = core.EstimatorFactory
	// ShardPool is the coordinator-side worker registry: health
	// checks, per-shard retry, failover re-dispatch, local fallback.
	ShardPool = shard.Pool
	// ShardPoolStats is the registry snapshot (/metrics "shard").
	ShardPoolStats = shard.PoolStats
	// ShardWorker is the worker-process side of the estimator RPC.
	ShardWorker = shard.Worker
	// ShardWorkerConfig sizes a shard worker.
	ShardWorkerConfig = shard.WorkerConfig
	// ShardWorkerStats is the worker-side counter snapshot.
	ShardWorkerStats = shard.WorkerStats
	// ShardWorkerCaps is the capability advertisement a worker sends at
	// registration — frame version and capacity hint. A frame version
	// other than the coordinator's is refused once, at registration,
	// with a typed 409 incompatible_worker (DESIGN.md §13).
	ShardWorkerCaps = shard.WorkerCaps
	// ShardRegistrar is the worker-side fleet-membership loop:
	// register, heartbeat, re-register across coordinator restarts,
	// deregister on drain (DESIGN.md §13).
	ShardRegistrar = shard.Registrar
	// ShardRegistrarConfig configures a ShardRegistrar.
	ShardRegistrarConfig = shard.RegistrarConfig
	// ShardFleetStats is the fleet-membership aggregate inside
	// ShardPoolStats (/metrics "shard.fleet").
	ShardFleetStats = shard.FleetStats
)

// Sharded-estimation constructors.
var (
	// LocalEstimator is the default EstimatorFactory: the in-process
	// batch engine.
	LocalEstimator = core.LocalEstimator
	// NewShardPool seeds the worker registry by base URL; seeded and
	// registered workers share one lifecycle (DESIGN.md §13).
	NewShardPool = shard.NewPool
	// ParseShardWorkers splits and validates a comma-separated worker
	// URL list with the normalizer registration uses, refusing a
	// malformed entry.
	ParseShardWorkers = shard.ParseWorkerList
	// ShardBackend returns the EstimatorFactory dispatching over a
	// pool — plug it into Options.Backend or ServiceConfig.Backend to
	// run any solve over the worker fleet.
	ShardBackend = shard.Backend
	// NewShardWorker creates the worker-side RPC state (imdppd -worker
	// mounts it).
	NewShardWorker = shard.NewWorker
	// NewShardEstimator creates one sharded estimator directly.
	NewShardEstimator = shard.NewEstimator
	// NewShardRegistrar builds the worker-side fleet-membership loop
	// (imdppd -worker -register wires it).
	NewShardRegistrar = shard.NewRegistrar
	// DefaultShardWorkerCaps advertises this binary's native
	// capabilities: its shard frame version and GOMAXPROCS.
	DefaultShardWorkerCaps = shard.DefaultWorkerCaps
)

// Sample-grid memoization (package gridcache, DESIGN.md §10): a
// bounded, byte-accounted cache of raw per-sample outcome grids keyed
// by (problem, seed, sample range, canonical seed group). Because a
// sample grid is a pure function of those coordinates (§3), a cached
// grid is a bit-exact substitute for re-simulation — CELF waves,
// repeated jobs and shard re-dispatch reuse each other's work.
type (
	// GridCache memoizes raw sample grids across solves.
	GridCache = gridcache.Cache
	// GridCacheConfig sizes a GridCache.
	GridCacheConfig = gridcache.Config
	// GridCacheStats is the cache counter snapshot (/metrics "grid").
	GridCacheStats = gridcache.Stats
)

// NewGridCache creates a sample-grid cache bounded at maxMB MiB
// (0 → 64), spilling committed grids under dir when non-empty. Plug it
// into Options.GridCache, ServiceConfig (via GridCacheMB/GridCacheDir)
// or ShardWorkerConfig.Grid.
func NewGridCache(maxMB int, dir string) *GridCache {
	if maxMB <= 0 {
		maxMB = 64
	}
	return gridcache.New(gridcache.Config{
		MaxBytes: int64(maxMB) << 20,
		Dir:      dir,
		KeyFn:    func(p *diffusion.Problem) string { return service.HashProblem(p).String() },
	})
}

// Approximate estimation (package sketch, DESIGN.md §9): a reverse-
// reachable-sketch backend answering σ queries by coverage counting
// within an (ε, δ) contract — selected per request via
// Options.Epsilon, or explicitly via SketchBackend.
type (
	// SketchConfig configures the sketch estimator backend.
	SketchConfig = sketch.Config
	// SketchParams identify one sketch build (ε, δ, seed).
	SketchParams = sketch.Params
	// Sketch is one immutable RR-sample index.
	Sketch = sketch.Sketch
	// SketchCache shares built sketch indexes (ServiceConfig wires one
	// automatically; library callers may pass their own).
	SketchCache = sketch.Cache
	// SigmaOptions configure a synchronous Service.Sigma evaluation.
	SigmaOptions = service.SigmaOptions
)

// Backend labels reported by Service.Sigma and job snapshots.
const (
	BackendMC     = service.BackendMC
	BackendSketch = service.BackendSketch
)

// Sketch constructors.
var (
	// SketchBackend returns the EstimatorFactory over the RR-sketch
	// hybrid estimator.
	SketchBackend = core.SketchBackend
	// NewSketchEstimator creates one sketch-backed estimator directly.
	NewSketchEstimator = sketch.New
	// BuildSketch builds one RR index eagerly.
	BuildSketch = sketch.Build
	// NewSketchCache creates a sketch index cache (optionally
	// disk-persistent).
	NewSketchCache = sketch.NewCache
	// SketchTheta returns the RR sample count for an (ε, δ) contract.
	SketchTheta = sketch.Theta
)

// Observability (package obs, DESIGN.md §11): span tracing across the
// solve → shard → cache pipeline plus fixed-bucket latency histograms.
// Purely observational — enabling a Tracer never changes a solver
// result bit (the same exclusion §3 grants Progress callbacks).
type (
	// Tracer records recent traces in a bounded ring; plug one into
	// ServiceConfig.Tracer (coordinator) or ShardWorkerConfig.Tracer
	// (worker). Its Handler serves GET /debug/traces.
	Tracer = obs.Tracer
	// Trace is one recorded trace: a root id plus its span records.
	Trace = obs.Trace
	// SpanRec is one finished span (also the shard-wire span form).
	SpanRec = obs.SpanRec
	// HistStats is a latency histogram snapshot (count, mean, p50/p95/p99).
	HistStats = obs.HistStats
	// LatencyMetrics is the /metrics "latency" block.
	LatencyMetrics = service.LatencyMetrics
	// PhaseTiming is one per-phase wall-clock entry on a job snapshot.
	PhaseTiming = service.PhaseTiming
)

// NewTracer creates a trace recorder holding the most recent traces.
var NewTracer = obs.NewTracer
