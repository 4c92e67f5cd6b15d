package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"imdpp/internal/castore"
	"imdpp/internal/core"
	"imdpp/internal/diffusion"
	"imdpp/internal/gridcache"
	"imdpp/internal/obs"
	"imdpp/internal/sketch"
)

// Typed submission failures.
var (
	// ErrQueueFull rejects a Submit when the bounded job queue has no
	// room; callers should retry later (HTTP 429/503).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed rejects work submitted after Close.
	ErrClosed = errors.New("service: closed")
)

// Config sizes the service. The zero value selects the defaults.
type Config struct {
	// Workers is the number of concurrent solver jobs (default 1).
	// Each job additionally parallelises its own σ estimation across
	// SolveWorkers estimator goroutines.
	Workers int
	// QueueDepth bounds the number of jobs waiting to run
	// (default 16); Submit fails with ErrQueueFull beyond it.
	QueueDepth int
	// CacheSize bounds the content-addressed result cache in entries
	// (default 128; 0 uses the default, negative disables caching).
	CacheSize int
	// SolveWorkers bounds estimator parallelism within one solve
	// (0 → GOMAXPROCS), overriding Request.Options.Workers.
	SolveWorkers int
	// JobRetention bounds how many finished jobs stay pollable
	// (default 1024); beyond it the oldest finished jobs are forgotten
	// and their ids return not-found. Queued and running jobs are
	// never evicted, and a job's terminal event is always published to
	// its event log before its id can be evicted (DESIGN.md §12).
	JobRetention int
	// Tenants maps tenant names to their scheduling quotas (weight,
	// queue depth, in-flight bound; DESIGN.md §12). Tenants not listed
	// get DefaultQuota. Scheduling only reorders work, so quotas never
	// change any job's result bits.
	Tenants map[string]TenantQuota
	// DefaultQuota is the quota applied to every tenant absent from
	// Tenants, including the default tenant requests without an
	// explicit tenant land in. The zero value selects weight 1,
	// MaxQueue = QueueDepth and MaxInflight = Workers.
	DefaultQuota TenantQuota
	// Backend, when non-nil, constructs the σ/π estimation backend
	// every solve and sigma evaluation runs over — e.g. a sharded
	// remote-worker estimator (internal/shard). The determinism
	// contract makes any conforming backend result-invariant, so the
	// content-addressed cache and coalescing sit above it unchanged: a
	// request solved by the fleet and one solved in-process share one
	// cache entry with bit-identical bytes. Requests that set Epsilon
	// override Backend with the RR-sketch estimator: an approximate
	// answer is what they asked for, and sketch indexes are built
	// where the coverage queries run rather than shipped per-sample
	// like MC grids (DESIGN.md §9).
	Backend core.EstimatorFactory
	// GridCacheMB bounds the in-memory sample-grid memoization cache
	// (internal/gridcache, DESIGN.md §10) in MiB (default 64; 0 uses
	// the default, negative disables). The cache is shared by every
	// job and sigma evaluation, so CELF waves of near-duplicate
	// requests reuse simulation work bit-identically — it sits below
	// the whole-solve result cache and, unlike the sketch lane, never
	// changes an answer.
	GridCacheMB int
	// Tracer, when non-nil, records one trace per job and sigma
	// evaluation (DESIGN.md §11). Tracing is observation only: the §3
	// determinism contract guarantees traced and untraced runs return
	// bit-identical results, so Tracer — like Progress and GridCache —
	// is excluded from every content address.
	Tracer *obs.Tracer
	// Logger receives structured job-lifecycle records with job_id and
	// trace_id correlation fields; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 1024
	}
	if c.GridCacheMB == 0 {
		c.GridCacheMB = 64
	}
	return c
}

// Request is one solve submission.
type Request struct {
	Problem *diffusion.Problem
	Options core.Options
	// Adaptive selects SolveAdaptive (Sec. V-D) instead of Dysim.
	Adaptive bool
	// Tenant names the scheduling tenant the request is accounted
	// under; empty selects the default tenant. Tenancy affects only
	// admission and dispatch order — never the solve result or its
	// content-address (§3 exclusion, like Workers and Progress).
	Tenant string
	// Priority orders dispatch within the tenant's queue: higher runs
	// earlier, FIFO within a priority. Result-invariant like Tenant.
	Priority int
}

// Metrics is a point-in-time snapshot of the service counters, the
// body of the daemon's GET /metrics response.
type Metrics struct {
	JobsSubmitted    uint64  `json:"jobs_submitted"`
	JobsCompleted    uint64  `json:"jobs_completed"`
	JobsFailed       uint64  `json:"jobs_failed"`
	JobsCancelled    uint64  `json:"jobs_cancelled"`
	CacheHits        uint64  `json:"cache_hits"`
	CacheMisses      uint64  `json:"cache_misses"`
	Coalesced        uint64  `json:"coalesced"`
	CacheEntries     int     `json:"cache_entries"`
	QueueDepth       int     `json:"queue_depth"`
	Running          int     `json:"running"`
	SamplesSimulated uint64  `json:"samples_simulated"`
	SolveSeconds     float64 `json:"solve_seconds"`
	// SamplesPerSec is effective estimator throughput: samples
	// simulated plus samples served from the grid cache, over
	// cumulative solve time. Counting served samples keeps the metric
	// comparable across cache-on and cache-off daemons — a cache hit
	// delivers the same bits as a simulation, just faster.
	SamplesPerSec float64 `json:"samples_per_sec"`
	// Sketch and Grid nest the per-subsystem cache counters, the same
	// object-per-subsystem shape the daemon uses for "shard" — one
	// naming discipline for every future counter family instead of a
	// drift of flat prefixed keys.
	Sketch SketchMetrics   `json:"sketch"`
	Grid   gridcache.Stats `json:"grid"`
	// Latency nests the pipeline latency histograms (DESIGN.md §11).
	Latency LatencyMetrics `json:"latency"`
	// Tenants is the per-tenant scheduling block (DESIGN.md §12): one
	// row per tenant with admission/shed counters, live queue/inflight
	// occupancy, the effective quota and the tenant's own queue-wait
	// histogram.
	Tenants map[string]TenantMetrics `json:"tenants"`
}

// LatencyMetrics is the /metrics "latency" block: p50/p95/p99
// snapshots of the pipeline's four latency histograms. ShardRPC is
// zero-valued here — the daemon overlays it from the shard pool.
type LatencyMetrics struct {
	QueueWait obs.HistStats `json:"queue_wait"`
	SolveWall obs.HistStats `json:"solve_wall"`
	ShardRPC  obs.HistStats `json:"shard_rpc"`
	Sigma     obs.HistStats `json:"sigma"`
}

// SketchMetrics groups the sketch-backend counters: requests that
// selected the approximate backend (epsilon set), RR indexes actually
// built and sketch cache hits.
type SketchMetrics struct {
	Requests  uint64 `json:"requests"`
	Builds    uint64 `json:"builds"`
	CacheHits uint64 `json:"cache_hits"`
}

// Service runs campaign solves asynchronously. Create with New,
// release with Close.
type Service struct {
	cfg Config
	// sched is the weighted-fair, quota-aware admission and dispatch
	// layer (sched.go, DESIGN.md §12) that replaced the FIFO channel.
	sched *scheduler

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	nextID   uint64
	jobs     map[string]*Job
	retired  []string                  // finished job ids, oldest first, for eviction
	inflight map[diffusion.Digest]*Job // queued or running job per content address
	// cache is the result lane (DESIGN.md §6), used under mu so a hit
	// check is atomic with the inflight lookup beside it.
	cache *castore.Store[*core.Solution]

	// sketchCache shares RR sketch indexes across epsilon requests,
	// keyed by the problem's content digest + (ε, δ, seed).
	sketchCache *sketch.Cache
	sketchReqs  atomic.Uint64

	// gridCache memoizes folded sample grids across jobs and sigma
	// evaluations, keyed by the problem's content digest + the
	// canonical group key (DESIGN.md §10); nil when Config disables it.
	gridCache *gridcache.Cache

	submitted  atomic.Uint64
	completed  atomic.Uint64
	failed     atomic.Uint64
	cancelled  atomic.Uint64
	cacheMiss  atomic.Uint64
	coalesced  atomic.Uint64
	running    atomic.Int64
	samples    atomic.Uint64
	saved      atomic.Uint64
	solveNanos atomic.Int64

	// latency histograms, always allocated so /metrics carries the
	// latency block whether or not a tracer is configured
	histQueue *obs.Histogram
	histSolve *obs.Histogram
	histSigma *obs.Histogram
	logger    *slog.Logger
}

// New starts a service with cfg's worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		sched:      newScheduler(cfg),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		inflight:   make(map[diffusion.Digest]*Job),
		cache:      castore.New(castore.Config[*core.Solution]{Budget: int64(cfg.CacheSize)}),
		histQueue:  obs.NewHistogram(),
		histSolve:  obs.NewHistogram(),
		histSigma:  obs.NewHistogram(),
		logger:     cfg.Logger,
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	// Retry-After estimate: how long until a queue slot frees, from
	// the backlog ahead of the caller and the observed mean solve time
	// (1s floor before any solve completes, 60s cap so clients never
	// back off absurdly).
	s.sched.retryAfter = func(queued int) time.Duration {
		mean := time.Duration(s.histSolve.Stats().MeanMs * float64(time.Millisecond))
		if mean <= 0 {
			mean = time.Second
		}
		d := mean * time.Duration(queued/cfg.Workers+1)
		return min(max(d, time.Second), time.Minute)
	}
	s.sketchCache = sketch.NewCache()
	if cfg.GridCacheMB > 0 {
		s.gridCache = gridcache.New(gridcache.Config{MaxBytes: int64(cfg.GridCacheMB) << 20})
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close cancels running jobs, drains the queue and waits for the
// worker pool to exit. The service rejects submissions afterwards.
// Jobs still queued are settled as cancelled, publishing their
// terminal events, so SSE subscribers and long-pollers attached at
// close time observe an outcome instead of hanging.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.baseCancel()
	s.sched.close() // workers drain the remaining queue as cancelled, then exit
	s.wg.Wait()
}

// ReloadQuotas swaps the per-tenant scheduling quotas atomically
// without dropping queued jobs (DESIGN.md §12) — the daemon's SIGHUP
// path. A tenant whose MaxQueue shrank below its current depth keeps
// its backlog and sheds only new admissions until it drains under the
// new cap.
func (s *Service) ReloadQuotas(quotas map[string]TenantQuota, def TenantQuota) {
	s.sched.reload(quotas, def)
}

// Submit enqueues a solve. The returned job may be shared: an
// identical request already queued or running is coalesced onto the
// existing job (coalesced=true), and a cached result completes the
// new job immediately (Job.Snapshot().CacheHit). Distinct requests
// beyond the queue bound fail with ErrQueueFull.
func (s *Service) Submit(req Request) (job *Job, coalescedFlag bool, err error) {
	if err := core.ValidateRequest(req.Problem, req.Options); err != nil {
		return nil, false, err
	}
	if err := req.Problem.Validate(); err != nil {
		return nil, false, err
	}
	key := HashRequest(req.Problem, req.Options, req.Adaptive)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if sol, ok := s.cache.Get(key.String()); ok {
		j := s.newJobLocked(key, req)
		j.cacheHit = true
		s.mu.Unlock()
		s.submitted.Add(1)
		j.finish(StatusDone, sol, nil, s.settled(j, &s.completed))
		return j, false, nil
	}
	if j := s.inflight[key]; j != nil {
		s.mu.Unlock()
		s.coalesced.Add(1)
		return j, true, nil
	}
	j := s.newJobLocked(key, req)
	if err := s.sched.admit(j); err != nil {
		// typed shed: *QuotaError carries the reason (queue_full or
		// quota_exceeded), the tenant and a Retry-After estimate
		delete(s.jobs, j.id)
		s.mu.Unlock()
		j.cancelCtx()
		return nil, false, err
	}
	s.inflight[key] = j
	s.mu.Unlock()
	s.cacheMiss.Add(1)
	s.submitted.Add(1)
	return j, false, nil
}

// newJobLocked allocates and registers a job; s.mu must be held.
func (s *Service) newJobLocked(key diffusion.Digest, req Request) *Job {
	s.nextID++
	ctx, cancel := context.WithCancel(s.baseCtx)
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	j := &Job{
		id:        jobID(s.nextID),
		key:       key,
		req:       req,
		tenant:    tenant,
		priority:  req.Priority,
		ctx:       ctx,
		cancelCtx: cancel,
		done:      make(chan struct{}),
		status:    StatusQueued,
		created:   time.Now(),
	}
	if req.Options.Epsilon > 0 {
		j.backend = BackendSketch
	}
	j.cancelHook = func() { s.cancelJob(j) }
	s.jobs[j.id] = j
	return j
}

func jobID(n uint64) string { return fmt.Sprintf("j%d", n) }

// Job looks up a job by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels the job with the given id, reporting whether the id
// was known.
func (s *Service) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	s.cancelJob(j)
	return true
}

// cancelJob cancels a job's context and, when no worker has picked it
// up yet, settles it as cancelled immediately so pollers never wait
// on a dead queue entry. The queued entry is withdrawn from its
// tenant's sub-queue eagerly, so quota accounting stays exact — a
// cancelled job can never hold a tenant at its MaxQueue bound.
func (s *Service) cancelJob(j *Job) {
	j.cancelCtx()
	if j.finishIfQueued(s.settled(j, &s.cancelled)) {
		s.clearInflight(j)
	}
}

// clearInflight removes j from the coalescing index if it still owns
// its key, so a later identical request solves afresh.
func (s *Service) clearInflight(j *Job) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

// retireJob enrols a finished job in the bounded retention window,
// evicting the oldest finished jobs beyond Config.JobRetention so a
// long-running daemon's job index cannot grow without bound. Only
// finished jobs enter the window, so queued/running jobs are safe.
//
// Ordering guarantee (DESIGN.md §12): retireJob runs in the settled
// hook of Job.finish / finishIfQueued, inside the status-settling
// critical section that then publishes the terminal event. An SSE
// subscriber or long-poller attached to a retiring job therefore
// always observes the terminal event — eviction only removes the id
// from the index; attached streams keep draining the Job they already
// hold. TestRetireDeliversTerminalToSubscribers pins this.
func (s *Service) retireJob(j *Job) {
	s.mu.Lock()
	s.retired = append(s.retired, j.id)
	for len(s.retired) > s.cfg.JobRetention {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
	s.mu.Unlock()
}

// settled returns the hook a job's finish runs when it settles the
// job, with j.mu held and before any waiter wakes: it counts the job
// on c, settles its scheduler accounting and retires it. A job settles
// once, so every job a worker dequeues — run, drained at close or
// cancelled after dequeue — returns its tenant's inflight slot exactly
// once, and a waiter never sees it still inflight.
func (s *Service) settled(j *Job, c *atomic.Uint64) func() {
	return func() {
		c.Add(1)
		s.sched.settle(j, j.started.Sub(j.created), j.status == StatusDone)
		s.retireJob(j)
	}
}

// worker is the solver loop: one goroutine per Config.Workers.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.sched.next()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

func (s *Service) runJob(j *Job) {
	if j.ctx.Err() != nil {
		// cancelled (or service-closed) while queued
		j.finish(StatusCancelled, nil, context.Canceled, s.settled(j, &s.cancelled))
		s.clearInflight(j)
		return
	}
	if !j.markRunning() {
		s.clearInflight(j)
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)

	// root span for the whole job: nil tracer → nil span → every call
	// below is a no-op and ctx is passed through unchanged
	root := s.cfg.Tracer.Start("job")
	defer root.End()
	root.SetAttr("job_id", j.id)
	root.SetAttr("key", j.key.String())
	j.setTrace(root.TraceID())
	qwait := j.queueWait()
	root.RecordChild("queue_wait", j.created, j.created.Add(qwait))
	s.histQueue.Observe(qwait)
	ctx := obs.ContextWithSpan(j.ctx, root)
	s.logger.Info("job running",
		"job_id", j.id, "trace_id", root.TraceID().String(),
		"queue_ms", float64(qwait)/1e6, "adaptive", j.req.Adaptive)

	tracker := &phaseTracker{parent: root}
	opt := j.req.Options
	opt.Progress = func(ev core.ProgressEvent) {
		tracker.observe(ev)
		j.setProgress(ev)
	}
	if s.cfg.SolveWorkers > 0 {
		opt.Workers = s.cfg.SolveWorkers
	}
	if opt.GridCache == nil {
		// the shared grid cache is what lets near-duplicate jobs — same
		// problem and seed, slightly different options — reuse each
		// other's simulation work below the whole-solve result cache
		opt.GridCache = s.gridCache
	}
	if opt.Backend == nil {
		opt.Backend, _ = s.backend(opt.Epsilon, opt.Delta)
	}
	start := time.Now()
	var (
		sol core.Solution
		err error
	)
	if j.req.Adaptive {
		sol, err = core.SolveAdaptiveCtx(ctx, j.req.Problem, opt)
	} else {
		sol, err = core.SolveCtx(ctx, j.req.Problem, opt)
	}
	elapsed := time.Since(start)
	s.histSolve.Observe(elapsed)
	j.setPhases(tracker.finish())
	if err != nil {
		root.SetAttr("error", err.Error())
		s.logger.Warn("job finished",
			"job_id", j.id, "trace_id", root.TraceID().String(),
			"solve_ms", elapsed.Seconds()*1e3, "err", err)
	} else {
		s.logger.Info("job finished",
			"job_id", j.id, "trace_id", root.TraceID().String(),
			"solve_ms", elapsed.Seconds()*1e3, "sigma", sol.Sigma)
	}

	switch {
	case err == nil:
		// cache-insert and inflight-clear atomically: an identical
		// Submit must never observe the key absent from both (it would
		// enqueue a duplicate full solve)
		s.mu.Lock()
		s.cache.Put(j.key.String(), &sol)
		if s.inflight[j.key] == j {
			delete(s.inflight, j.key)
		}
		s.mu.Unlock()
		s.samples.Add(sol.Stats.SamplesSimulated)
		s.saved.Add(sol.Stats.SamplesSaved)
		s.solveNanos.Add(int64(elapsed))
		j.finish(StatusDone, &sol, nil, s.settled(j, &s.completed))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.clearInflight(j)
		j.finish(StatusCancelled, nil, err, s.settled(j, &s.cancelled))
	default:
		s.clearInflight(j)
		j.finish(StatusFailed, nil, err, s.settled(j, &s.failed))
	}
}

// SigmaOptions configure one synchronous σ evaluation. The zero value
// is valid: 100 Monte-Carlo samples, exact engine.
type SigmaOptions struct {
	// MC is the Monte-Carlo sample count (0 → 100). Ignored by the
	// sketch path, whose sample count θ derives from (ε, δ).
	MC int
	// Seed is the master RNG seed.
	Seed uint64
	// Epsilon > 0 answers by RR-sketch coverage counting instead of
	// simulation, within ε·n·W of the exact value with probability
	// ≥ 1−Delta. 0 keeps the exact engine and its bit-identical
	// responses.
	Epsilon float64
	// Delta is the (ε, δ) failure probability (0 → 0.05 when Epsilon
	// is set).
	Delta float64
}

// Backend labels returned by Sigma.
const (
	BackendMC     = "mc"
	BackendSketch = "sketch"
)

// Sigma evaluates σ for an explicit seed group synchronously — the
// daemon's POST /v1/sigma. It validates the seeds, honours ctx
// cancellation and contributes to the service throughput counters.
// The returned backend label reports which estimator answered
// (BackendMC or BackendSketch).
func (s *Service) Sigma(ctx context.Context, p *diffusion.Problem, seeds []diffusion.Seed, opt SigmaOptions) (diffusion.Estimate, string, error) {
	// same request gate as Submit: typed errors for nil problem,
	// negative budget, T < 1, a negative sample count and a bad
	// (ε, δ) pair
	if err := core.ValidateRequest(p, core.Options{MC: opt.MC, Epsilon: opt.Epsilon, Delta: opt.Delta}); err != nil {
		return diffusion.Estimate{}, "", err
	}
	if err := p.Validate(); err != nil {
		return diffusion.Estimate{}, "", err
	}
	mc := opt.MC
	if mc == 0 {
		mc = 100
	}
	if err := p.ValidateSeeds(seeds); err != nil {
		return diffusion.Estimate{}, "", err
	}
	backend, name := s.backend(opt.Epsilon, opt.Delta)
	root := s.cfg.Tracer.Start("sigma")
	defer root.End()
	root.SetAttr("backend", name)
	root.SetAttrInt("seeds", int64(len(seeds)))
	ctx = obs.ContextWithSpan(ctx, root)
	est := backend(p, mc, opt.Seed, s.cfg.SolveWorkers)
	est.Bind(ctx)
	core.AttachGridCache(est, p, s.gridCache)
	start := time.Now()
	run := est.Run(seeds, nil, false)
	s.histSigma.Observe(time.Since(start))
	if err := ctx.Err(); err != nil {
		return diffusion.Estimate{}, "", err
	}
	s.samples.Add(est.SamplesDone())
	if gs, ok := est.(interface{ GridStats() (uint64, uint64) }); ok {
		_, sv := gs.GridStats()
		s.saved.Add(sv)
	}
	s.solveNanos.Add(int64(time.Since(start)))
	return run, name, nil
}

// backend picks the estimation backend for a solve or σ query and its
// label. An epsilon request explicitly asked for the approximate
// backend, so it wins over a configured fleet backend: coverage
// counting runs where the sketch index lives (DESIGN.md §9), and the
// service's index cache is shared between epsilon solves and queries
// over the same problem. Otherwise Config.Backend, else the local
// engine.
func (s *Service) backend(eps, delta float64) (core.EstimatorFactory, string) {
	if eps > 0 {
		s.sketchReqs.Add(1)
		return core.SketchBackend(sketch.Config{Epsilon: eps, Delta: delta, Cache: s.sketchCache}), BackendSketch
	}
	if s.cfg.Backend != nil {
		return s.cfg.Backend, BackendMC
	}
	return core.LocalEstimator, BackendMC
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() Metrics {
	cache := s.cache.Stats()
	depth := s.sched.depth()
	m := Metrics{
		JobsSubmitted:    s.submitted.Load(),
		JobsCompleted:    s.completed.Load(),
		JobsFailed:       s.failed.Load(),
		JobsCancelled:    s.cancelled.Load(),
		CacheHits:        cache.Hits,
		CacheMisses:      s.cacheMiss.Load(),
		Coalesced:        s.coalesced.Load(),
		CacheEntries:     cache.Entries,
		QueueDepth:       depth,
		Running:          int(s.running.Load()),
		SamplesSimulated: s.samples.Load(),
		SolveSeconds:     time.Duration(s.solveNanos.Load()).Seconds(),
	}
	if m.SolveSeconds > 0 {
		m.SamplesPerSec = float64(m.SamplesSimulated+s.saved.Load()) / m.SolveSeconds
	}
	m.Sketch.Requests = s.sketchReqs.Load()
	m.Sketch.Builds, m.Sketch.CacheHits = s.sketchCache.Stats()
	m.Grid = s.gridCache.Stats()
	m.Latency.QueueWait = s.histQueue.Stats()
	m.Latency.SolveWall = s.histSolve.Stats()
	m.Latency.Sigma = s.histSigma.Stats()
	m.Tenants = s.sched.metrics()
	return m
}
