// Command imdppd is the IMDPP campaign-solving daemon: an HTTP/JSON
// front-end over the serving layer (internal/service) — async solves
// on a bounded job queue, prompt cancellation, and a
// content-addressed result cache that serves identical requests in
// O(1) and coalesces concurrent duplicates onto one in-flight solve.
//
// Endpoints:
//
//	POST   /v1/solve             submit a solve; returns a job id.
//	                             ?wait=<duration> long-polls completion
//	GET    /v1/jobs/{id}         job status, progress and (when done) the solution
//	GET    /v1/jobs/{id}/events  SSE stream of progress + terminal events
//	                             (Last-Event-ID resume, heartbeats)
//	DELETE /v1/jobs/{id}         cancel a queued or running job (409 if finished)
//	POST   /v1/sigma             evaluate σ for an explicit seed group (sync)
//	GET    /healthz              liveness
//	GET    /metrics              JSON counters: jobs, cache hits, samples/sec,
//	                             per-tenant scheduling, worker-pool depth
//
// Requests are scheduled per tenant (X-IMDPP-Tenant header or "tenant"
// body field; default tenant otherwise) under deficit-weighted
// round-robin with per-tenant quotas (-tenant-quotas, DESIGN.md §12);
// shed load returns typed 429s (quota_exceeded / queue_full) bearing
// Retry-After.
//
// Quickstart:
//
//	imdppd -addr 127.0.0.1:8080 &
//	curl -s -X POST localhost:8080/v1/solve \
//	  -d '{"dataset":"sample","budget":100,"t":4,"mc":8}'
//	curl -s localhost:8080/v1/jobs/j1
//
// Scale-out (DESIGN.md §7): `imdppd -worker` turns the process into a
// remote estimator worker serving the shard RPC (problem upload and
// per-sample-range estimation over frame streams); a coordinator started
// with `-shard-workers http://hostA:8081,http://hostB:8081` fans every
// solve's σ/π batches out over the fleet, bit-identical to a local
// solve. See README.md "Deploying a worker fleet".
//
// Flags (parseConfig; `imdppd -h` describes each):
//
//	serving    -addr -workers -queue -cache -solve-workers
//	           -tenant-quotas -sse-heartbeat
//	caches     -grid-cache-mb
//	scale-out  -worker -shard-workers
//	operation  -debug-addr -log-level -log-json
//
// SIGHUP re-reads -tenant-quotas. SIGINT/SIGTERM close the listener
// and give in-flight requests up to 30 s to finish; a coordinator
// cancels its jobs, so event streams and ?wait= long-polls end with
// the job's cancelled snapshot.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"imdpp"
	"imdpp/internal/castore"
)

// config is the daemon's parsed command line, one field per flag.
type config struct {
	addr, tenantQuotas, debugAddr                   string
	workers, queue, cacheSize, solveWorkers, gridMB int
	worker, logJSON                                 bool
	sseHeartbeat                                    time.Duration
	shardWorkers                                    []string
	logLevel                                        slog.Level
}

// parseConfig parses the daemon's flags and enforces the rules on how
// they combine, so every startup refusal is one testable error.
func parseConfig(args []string) (config, error) {
	var c config
	var shardWorkers string
	fs := flag.NewFlagSet("imdppd", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	fs.IntVar(&c.workers, "workers", 2, "concurrent solver jobs")
	fs.IntVar(&c.queue, "queue", 16, "bounded job-queue depth")
	fs.IntVar(&c.cacheSize, "cache", 128, "content-addressed result cache entries")
	fs.IntVar(&c.solveWorkers, "solve-workers", 0, "estimator goroutines per solve (0 = GOMAXPROCS)")
	fs.BoolVar(&c.worker, "worker", false, "run as a remote estimator worker (shard RPC only)")
	fs.StringVar(&shardWorkers, "shard-workers", "", "comma-separated worker base URLs; fan σ/π estimation out over them (DESIGN.md §7, §13)")
	fs.IntVar(&c.gridMB, "grid-cache-mb", 64, "in-memory sample-grid memoization cache bound in MiB (0 disables); shared across jobs, in front of -shard-workers too; refused with -worker")
	fs.StringVar(&c.tenantQuotas, "tenant-quotas", "", "per-tenant scheduling quotas: name:weight[:max_queue[:max_inflight]] comma-separated; name 'default' sets the quota unlisted tenants get (DESIGN.md §12)")
	fs.DurationVar(&c.sseHeartbeat, "sse-heartbeat", defaultHeartbeat, "SSE keep-alive comment interval on GET /v1/jobs/{id}/events")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "optional debug listener (net/http/pprof + /debug/traces) kept off the serving mux; empty disables (DESIGN.md §11)")
	fs.TextVar(&c.logLevel, "log-level", slog.LevelInfo, "log verbosity: debug|info|warn|error")
	fs.BoolVar(&c.logJSON, "log-json", false, "emit logs as JSON lines instead of text")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.worker && shardWorkers != "" {
		return c, errors.New("-worker and -shard-workers are mutually exclusive")
	}
	if c.sseHeartbeat <= 0 {
		return c, fmt.Errorf("-sse-heartbeat %v: want > 0", c.sseHeartbeat)
	}
	var err error
	fs.Visit(func(f *flag.Flag) { // a coordinator caches grids, a worker none (DESIGN.md §10)
		if c.worker && f.Name == "grid-cache-mb" {
			err = errors.New("-worker and -grid-cache-mb are mutually exclusive: the coordinator caches sample grids")
		}
	})
	if err != nil {
		return c, err
	}
	if c.shardWorkers, err = imdpp.ParseShardWorkers(shardWorkers); err != nil {
		return c, fmt.Errorf("-shard-workers: %w", err)
	}
	return c, nil
}

func main() {
	c, err := parseConfig(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "imdppd: %v\n", err)
		os.Exit(2)
	}
	logger := newLogger(c.logLevel, c.logJSON)
	// one process-wide trace ring serves both modes: the coordinator
	// records solve/shard spans into it, a worker its estimate spans
	tracer := imdpp.NewTracer()

	var srv *http.Server
	cleanup := func() {}
	var d *daemon // non-nil in coordinator mode; drives SIGHUP reload
	if c.worker {
		var ended <-chan struct{}
		srv, ended = newWorkerDaemon(c.solveWorkers, tracer).server(shutdownGrace)
		cleanup = func() { <-ended }
	} else {
		quotas, defQuota, err := loadQuotas(c.tenantQuotas)
		if err != nil {
			fatal(logger, err.Error())
		}
		cfg := imdpp.ServiceConfig{
			Workers:      c.workers,
			QueueDepth:   c.queue,
			CacheSize:    c.cacheSize,
			SolveWorkers: c.solveWorkers,
			GridCacheMB:  c.gridMB,
			Tenants:      quotas,
			DefaultQuota: defQuota,
			Tracer:       tracer,
			Logger:       logger,
		}
		if c.gridMB <= 0 {
			cfg.GridCacheMB = -1 // flag 0 means off; Config 0 means default
		}
		var pool *imdpp.ShardPool
		if len(c.shardWorkers) > 0 {
			// the listed workers under the probe-driven failure detector,
			// which also refuses a foreign frame version (DESIGN.md §13)
			pool = imdpp.NewShardPool(c.shardWorkers, nil)
			pool.SetLogger(logger)
			healthy := pool.Check(context.Background())
			logger.Info("shard pool ready", "healthy", healthy, "workers", pool.Size())
			pool.StartHealthLoop()
			cfg.Backend = imdpp.ShardBackend(pool)
		}
		d = newDaemon(cfg, pool)
		d.heartbeat = c.sseHeartbeat
		srv = d.server()
		cleanup = func() {
			d.svc.Close()
			if pool != nil {
				pool.Close()
			}
		}
	}
	defer cleanup()

	if c.debugAddr != "" {
		dln, err := net.Listen("tcp", c.debugAddr)
		if err != nil {
			fatal(logger, "debug listen failed", "addr", c.debugAddr, "err", err)
		}
		go func() { _ = http.Serve(dln, debugMux(tracer)) }()
		// same scrape contract as the serving line below, for harnesses
		// that need the resolved debug port
		fmt.Printf("imdppd debug listening on http://%s\n", dln.Addr())
	}

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		fatal(logger, "listen failed", "addr", c.addr, "err", err)
	}

	// the resolved address line is a readiness contract: the smoke
	// harness scrapes it to discover the random port
	fmt.Printf("imdppd listening on http://%s\n", ln.Addr())

	// SIGHUP reloads the tenant-quota table atomically — queued jobs
	// keep their slots, only future admissions see the new limits
	// (DESIGN.md §12). Coordinator mode only; workers hold no queue.
	if d != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				quotas, defQuota, err := loadQuotas(c.tenantQuotas)
				if err != nil {
					logger.Error("quota reload failed", "err", err)
					continue
				}
				d.svc.ReloadQuotas(quotas, defQuota)
				logger.Info("tenant quotas reloaded", "tenants", len(quotas))
			}
		}()
	}

	// SIGINT/SIGTERM closes the listener — a coordinator fails over new
	// dispatches to other workers, bit-identically (DESIGN.md §13) — and
	// lets in-flight requests finish within shutdownGrace; a worker
	// writes its in-flight replies and closes its shard streams
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, srv, ln, shutdownGrace); err != nil {
		fatal(logger, "serve failed or shutdown grace expired", "err", err)
	}
}

// shutdownGrace bounds how long a shutdown waits for in-flight
// requests: shard estimates, ?wait= long-polls, /v1/sigma calls.
const shutdownGrace = 30 * time.Second

// serve runs srv on ln until ctx is done, then shuts it down and
// returns only once Shutdown has: the listener is closed at once, and
// in-flight requests get up to grace to complete.
func serve(ctx context.Context, srv *http.Server, ln net.Listener, grace time.Duration) error {
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	<-served // http.ErrServerClosed
	return err
}

// newLogger builds the process logger from the -log-level / -log-json
// flags. Logs go to stderr so stdout keeps the readiness-line contract.
func newLogger(level slog.Level, jsonOut bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if jsonOut {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

// debugMux is the opt-in -debug-addr surface: recent traces plus the
// standard pprof profiles, deliberately on a separate listener so
// profiling load and trace scrapes never contend with serving traffic.
func debugMux(tracer *imdpp.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /debug/traces", tracer.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// daemon wires the HTTP surface to the serving layer, memoizing up to
// maxDatasets synthetic datasets in a castore (least recently used
// evicted first) so repeated requests against one workload don't pay
// regeneration. pool is non-nil when the daemon coordinates a shard
// worker fleet.
type daemon struct {
	svc     *imdpp.Service
	pool    *imdpp.ShardPool
	workers int
	start   time.Time
	// heartbeat is the SSE keep-alive comment interval; tests shrink it.
	heartbeat time.Duration
	memo      *castore.Store[*imdpp.Dataset] // by dsKey.String
}

type dsKey struct {
	name  string
	scale float64
}

// String is the key's memo form: the scale's bits in fixed width, then
// the name.
func (k dsKey) String() string {
	return fmt.Sprintf("%016x%s", math.Float64bits(k.scale), k.name)
}

const (
	// maxScale bounds a request's dataset scale. Generation cost grows
	// as scale²: Douban at scale 8 allocates about 227 MB.
	maxScale = 8
	// maxDatasets bounds the dataset memo; past it the least recently
	// used entry is evicted.
	maxDatasets = 8
	// defaultHeartbeat is -sse-heartbeat's default.
	defaultHeartbeat = 15 * time.Second
)

func newDaemon(cfg imdpp.ServiceConfig, pool *imdpp.ShardPool) *daemon {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	return &daemon{
		svc:       imdpp.NewService(cfg),
		pool:      pool,
		workers:   workers,
		start:     time.Now(),
		heartbeat: defaultHeartbeat,
		memo:      castore.New(castore.Config[*imdpp.Dataset]{Budget: maxDatasets}),
	}
}

// workerDaemon is the `imdppd -worker` surface: the shard estimator
// RPC and its /healthz probe (Worker.Mount) plus counters. It holds no
// job queue, cache or datasets — a worker only simulates the sample
// ranges coordinators send it, against problems they upload by content
// address.
type workerDaemon struct {
	w     *imdpp.ShardWorker
	start time.Time
}

func newWorkerDaemon(solveWorkers int, tracer *imdpp.Tracer) *workerDaemon {
	return &workerDaemon{
		w:     imdpp.NewShardWorker(imdpp.ShardWorkerConfig{Workers: solveWorkers, Tracer: tracer}),
		start: time.Now(),
	}
}

// server is the worker's HTTP server. Every shard stream is a
// hijacked connection, which http.Server.Shutdown does not wait for,
// so shutdown also shuts the worker down: each in-flight reply is
// written, every stream closed, and ended closes within grace.
func (wd *workerDaemon) server(grace time.Duration) (*http.Server, <-chan struct{}) {
	srv := &http.Server{Handler: wd.handler()}
	ended := make(chan struct{})
	srv.RegisterOnShutdown(func() {
		defer close(ended)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		_ = wd.w.Shutdown(ctx)
	})
	return srv, ended
}

func (wd *workerDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	wd.w.Mount(mux)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			imdpp.ShardWorkerStats
			UptimeSeconds float64 `json:"uptime_seconds"`
		}{
			ShardWorkerStats: wd.w.Stats(),
			UptimeSeconds:    time.Since(wd.start).Seconds(),
		})
	})
	return mux
}

// server is the coordinator's HTTP server. A job's event stream and a
// ?wait= long-poll end only with their job, so shutdown cancels every
// job: each watcher gets its terminal event instead of holding
// Shutdown for the full grace.
func (d *daemon) server() *http.Server {
	srv := &http.Server{Handler: d.handler()}
	srv.RegisterOnShutdown(d.svc.Close)
	return srv
}

func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", d.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", d.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", d.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", d.handleJobCancel)
	mux.HandleFunc("POST /v1/sigma", d.handleSigma)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	return mux
}

// loadQuotas resolves and parses the -tenant-quotas flag value; startup
// and SIGHUP reload share it.
func loadQuotas(spec string) (map[string]imdpp.TenantQuota, imdpp.TenantQuota, error) {
	spec, err := resolveQuotaSpec(spec)
	if err != nil {
		return nil, imdpp.TenantQuota{}, err
	}
	return imdpp.ParseTenantQuotas(spec)
}

// resolveQuotaSpec resolves the -tenant-quotas flag value: a literal
// spec, or "@path" naming a file holding the spec — the indirection
// that lets SIGHUP pick up edits without a flag change.
func resolveQuotaSpec(spec string) (string, error) {
	if !strings.HasPrefix(spec, "@") {
		return spec, nil
	}
	b, err := os.ReadFile(strings.TrimPrefix(spec, "@"))
	if err != nil {
		return "", fmt.Errorf("-tenant-quotas: %w", err)
	}
	return strings.TrimSpace(string(b)), nil
}

// problemSpec is the shared problem-defining half of solve and sigma
// request bodies.
type problemSpec struct {
	Dataset string  `json:"dataset"` // amazon|yelp|douban|gowalla|sample
	Scale   float64 `json:"scale"`   // 0 → 1.0
	Budget  float64 `json:"budget"`
	T       int     `json:"t"`
}

// solveRequest is the POST /v1/solve body. Zero-valued option fields
// select the solver defaults (DESIGN.md §2).
type solveRequest struct {
	problemSpec
	Algo         string `json:"algo"` // dysim (default) | adaptive
	MC           int    `json:"mc"`
	MCSI         int    `json:"mcsi"`
	Seed         uint64 `json:"seed"`
	Theta        int    `json:"theta"`
	CandidateCap int    `json:"candidate_cap"`
	Order        string `json:"order"` // AE|PF|SZ|RMS|RD
	// Tenant selects the scheduling tenant (falls back to the
	// X-IMDPP-Tenant header, then the default tenant); Priority orders
	// dispatch within it, higher first. Both are result-invariant —
	// they steer when a job runs, never what it computes.
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	// Epsilon, when present, selects the RR-sketch approximate
	// backend: σ answers within ε·n·W of exact with probability
	// ≥ 1−delta (DESIGN.md §9). Absent keeps the exact MC path and
	// its bit-identical responses and cache keys. Pointers so an
	// explicit 0 is a client error rather than a silent MC fallback.
	Epsilon *float64 `json:"epsilon"`
	Delta   *float64 `json:"delta"` // absent with epsilon → 0.05
}

type solveResponse struct {
	JobID     string          `json:"job_id"`
	Status    imdpp.JobStatus `json:"status"`
	Key       string          `json:"key"`
	CacheHit  bool            `json:"cache_hit"`
	Coalesced bool            `json:"coalesced"`
	// Backend echoes the selected estimation backend ("sketch" for
	// epsilon requests; omitted on the exact MC path, keeping
	// pre-epsilon response bytes unchanged).
	Backend string `json:"backend,omitempty"`
}

// sigmaRequest is the POST /v1/sigma body.
type sigmaRequest struct {
	problemSpec
	MC    int          `json:"mc"` // 0 → 100
	Seed  uint64       `json:"seed"`
	Seeds []imdpp.Seed `json:"seeds"`
	// Epsilon/Delta select the RR-sketch approximate backend, exactly
	// as on /v1/solve; absent keeps the bit-identical MC path.
	Epsilon *float64 `json:"epsilon"`
	Delta   *float64 `json:"delta"`
}

// sigmaResponse wraps the estimate with the backend echo. Estimate is
// embedded so the σ fields keep their exact historical JSON shape;
// the extra key only appears for sketch answers.
type sigmaResponse struct {
	imdpp.Estimate
	Backend string `json:"backend,omitempty"`
}

// sketchParams resolves the optional epsilon/delta request fields
// shared by /v1/solve and /v1/sigma. Absent epsilon selects the exact
// MC backend; a present field must be usable — an explicit epsilon
// ≤ 0 or delta outside (0,1) is a client error, never a silent
// fallback that would hand back a differently-keyed answer than the
// caller asked for.
func sketchParams(eps, delta *float64) (float64, float64, error) {
	if eps == nil {
		if delta != nil {
			return 0, 0, &imdpp.InputError{Field: "Delta", Reason: "delta set without epsilon; the (ε, δ) contract needs both"}
		}
		return 0, 0, nil
	}
	if !(*eps > 0) { // rejects ≤ 0 and NaN
		return 0, 0, &imdpp.InputError{Field: "Epsilon", Reason: fmt.Sprintf("sketch accuracy %g must be > 0", *eps)}
	}
	d := 0.0
	if delta != nil {
		if !(*delta > 0 && *delta < 1) {
			return 0, 0, &imdpp.InputError{Field: "Delta", Reason: fmt.Sprintf("sketch failure probability %g outside (0,1)", *delta)}
		}
		d = *delta
	}
	return *eps, d, nil
}

func (d *daemon) loadProblem(spec problemSpec) (*imdpp.Problem, error) {
	if spec.Scale == 0 {
		spec.Scale = 1.0
	}
	if spec.Scale > maxScale {
		return nil, &imdpp.InputError{Field: "Scale", Reason: fmt.Sprintf("%g: want ≤ %d", spec.Scale, maxScale)}
	}
	ds, err := d.dataset(dsKey{name: strings.ToLower(spec.Dataset), scale: spec.Scale})
	if err != nil {
		return nil, err
	}
	return ds.Clone(spec.Budget, spec.T), nil
}

// dataset returns the memoized dataset for key, generating it on a
// miss. Generation holds no lock, since it can take seconds at scale
// and first requests for distinct keys should not serialise;
// concurrent first requests for one key wait for a single build, so
// their problems share its Substrate. A failed build is not memoized.
func (d *daemon) dataset(key dsKey) (*imdpp.Dataset, error) {
	return d.memo.Do(key.String(), nil, func() (*imdpp.Dataset, error) {
		return imdpp.LoadDataset(key.name, key.scale)
	})
}

func parseOrder(s string) (imdpp.OrderMetric, error) {
	switch strings.ToUpper(s) {
	case "", "AE":
		return imdpp.OrderAE, nil
	case "PF":
		return imdpp.OrderPF, nil
	case "SZ":
		return imdpp.OrderSZ, nil
	case "RMS":
		return imdpp.OrderRMS, nil
	case "RD":
		return imdpp.OrderRD, nil
	default:
		return 0, &imdpp.InputError{Field: "Order", Reason: fmt.Sprintf("unknown metric %q (want AE|PF|SZ|RMS|RD)", s)}
	}
}

// solveCall is a decoded, validated POST /v1/solve: the body, the
// solver options and algorithm it selects, and the ?wait= deadline.
type solveCall struct {
	req      solveRequest
	opt      imdpp.Options
	adaptive bool
	wait     time.Duration
}

// decodeSolve decodes a POST /v1/solve body and validates everything
// that needs no problem: algorithm, order metric, sketch parameters,
// ?wait= and the solver options. It loads no dataset and submits
// nothing; on failure it has written the typed 4xx and returns false.
func decodeSolve(w http.ResponseWriter, r *http.Request) (solveCall, bool) {
	var c solveCall
	if !decodeBody(w, r, &c.req) {
		return c, false
	}
	req := &c.req
	switch strings.ToLower(req.Algo) {
	case "", "dysim":
	case "adaptive":
		c.adaptive = true
	default:
		writeError(w, http.StatusBadRequest, &imdpp.InputError{Field: "Algo", Reason: fmt.Sprintf("unknown algorithm %q (want dysim|adaptive)", req.Algo)})
		return c, false
	}
	order, err := parseOrder(req.Order)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return c, false
	}
	eps, delta, err := sketchParams(req.Epsilon, req.Delta)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return c, false
	}
	if c.wait, err = parseWait(r.URL.Query().Get("wait")); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return c, false
	}
	c.opt = imdpp.Options{
		MC:           req.MC,
		MCSI:         req.MCSI,
		Seed:         req.Seed,
		Theta:        req.Theta,
		CandidateCap: req.CandidateCap,
		Order:        order,
		Epsilon:      eps,
		Delta:        delta,
	}
	if err := c.opt.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return c, false
	}
	return c, true
}

func (d *daemon) handleSolve(w http.ResponseWriter, r *http.Request) {
	c, ok := decodeSolve(w, r)
	if !ok {
		return
	}
	req := &c.req
	tenant := req.Tenant
	if tenant == "" {
		tenant = r.Header.Get("X-IMDPP-Tenant")
	}
	p, err := d.loadProblem(req.problemSpec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, coalesced, err := d.svc.Submit(imdpp.ServiceRequest{
		Problem:  p,
		Options:  c.opt,
		Adaptive: c.adaptive,
		Tenant:   tenant,
		Priority: req.Priority,
	})
	if err != nil {
		writeError(w, submitStatus(err), err)
		return
	}
	if c.wait > 0 {
		// long-poll: block up to the deadline; a finished job returns its
		// full snapshot (solution included), a still-working one falls
		// through to the usual 202 ticket
		waitCtx, cancel := context.WithTimeout(r.Context(), c.wait)
		_, _ = job.Wait(waitCtx)
		cancel()
		if snap := job.Snapshot(); snap.Status == imdpp.JobDone ||
			snap.Status == imdpp.JobFailed || snap.Status == imdpp.JobCancelled {
			writeJSON(w, http.StatusOK, snap)
			return
		}
	}
	snap := job.Snapshot()
	writeJSON(w, http.StatusAccepted, solveResponse{
		JobID:     job.ID(),
		Status:    snap.Status,
		Key:       job.Key().String(),
		CacheHit:  snap.CacheHit,
		Coalesced: coalesced,
		Backend:   snap.Backend,
	})
}

// maxWait caps ?wait= long-polls so an absurd deadline cannot pin a
// connection for hours; clients needing longer should poll or stream.
const maxWait = 10 * time.Minute

// parseWait parses the ?wait= long-poll deadline on POST /v1/solve.
// Empty means no wait; values above maxWait are clamped, not rejected.
func parseWait(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, &imdpp.InputError{Field: "wait", Reason: fmt.Sprintf("bad duration %q: %v", s, err)}
	}
	if d < 0 {
		return 0, &imdpp.InputError{Field: "wait", Reason: fmt.Sprintf("negative duration %q", s)}
	}
	return min(d, maxWait), nil
}

func submitStatus(err error) int {
	var inputErr *imdpp.InputError
	switch {
	case errors.As(err, &inputErr):
		return http.StatusBadRequest
	case errors.Is(err, imdpp.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, imdpp.ErrServiceClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (d *daemon) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := d.svc.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// handleJobEvents streams a job's retained event log as Server-Sent
// Events (DESIGN.md §12): `id:` carries the event sequence number,
// `event:` the type ("progress", or the terminal "done"/"failed"/
// "cancelled"), `data:` the JSON payload (ProgressEvent for progress,
// the full JobView for the terminal event). A Last-Event-ID header (or
// ?last_event_id=) resumes after the given sequence number; progress
// older than the retention window is skipped, the terminal event never
// is. The stream ends after the terminal event; heartbeat comments
// (": hb") keep idle connections alive.
func (d *daemon) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := d.svc.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	last := 0
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("last_event_id")
	}
	if lastID != "" {
		var err error
		if last, err = strconv.Atoi(lastID); err != nil || last < 0 {
			writeError(w, http.StatusBadRequest, &imdpp.InputError{Field: "Last-Event-ID", Reason: fmt.Sprintf("bad sequence number %q", lastID)})
			return
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	timer := time.NewTimer(d.heartbeat)
	defer timer.Stop()
	for {
		// grab the wake channel BEFORE reading, so a publication landing
		// between the read and the wait is never slept through
		wake := job.Wake()
		evs, terminal := job.EventsSince(last)
		for _, ev := range evs {
			if err := writeSSE(w, ev); err != nil {
				return
			}
			last = ev.Seq
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if terminal {
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d.heartbeat)
		select {
		case <-wake:
		case <-timer.C:
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE frames one job event: id carries the sequence number for
// Last-Event-ID resume, data the progress report or (terminal) the
// full job snapshot.
func writeSSE(w http.ResponseWriter, ev imdpp.JobEvent) error {
	var payload any
	if ev.Progress != nil {
		payload = ev.Progress
	} else {
		payload = ev.Job
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}

func (d *daemon) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := d.svc.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	// cancelling a finished job is a conflict, not a silent no-op: the
	// job's outcome is already settled and will not change
	if snap := job.Snapshot(); snap.Status == imdpp.JobDone ||
		snap.Status == imdpp.JobFailed || snap.Status == imdpp.JobCancelled {
		writeJSON(w, http.StatusConflict, errorBody{
			Error:  fmt.Sprintf("job %q already finished with status %q", id, snap.Status),
			Code:   "job_finished",
			Status: snap.Status,
		})
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// decodeSigma decodes a POST /v1/sigma body and validates everything
// that needs no problem: sketch parameters and the sample count. It
// loads no dataset and estimates nothing; on failure it has written
// the typed 4xx and returns false.
func decodeSigma(w http.ResponseWriter, r *http.Request) (sigmaRequest, imdpp.SigmaOptions, bool) {
	var req sigmaRequest
	if !decodeBody(w, r, &req) {
		return req, imdpp.SigmaOptions{}, false
	}
	eps, delta, err := sketchParams(req.Epsilon, req.Delta)
	if err == nil {
		err = imdpp.Options{MC: req.MC, Epsilon: eps, Delta: delta}.Validate()
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return req, imdpp.SigmaOptions{}, false
	}
	return req, imdpp.SigmaOptions{MC: req.MC, Seed: req.Seed, Epsilon: eps, Delta: delta}, true
}

func (d *daemon) handleSigma(w http.ResponseWriter, r *http.Request) {
	req, opt, ok := decodeSigma(w, r)
	if !ok {
		return
	}
	p, err := d.loadProblem(req.problemSpec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	est, backend, err := d.svc.Sigma(r.Context(), p, req.Seeds, opt)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, context.Canceled) {
			status = 499 // client closed request
		}
		writeError(w, status, err)
		return
	}
	resp := sigmaResponse{Estimate: est}
	if backend == imdpp.BackendSketch {
		resp.Backend = backend
	}
	writeJSON(w, http.StatusOK, resp)
}

func (d *daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":             true,
		"uptime_seconds": time.Since(d.start).Seconds(),
	})
}

func (d *daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		imdpp.ServiceMetrics
		// SolveWorkers is the solver worker-pool depth: how many jobs
		// can run concurrently.
		SolveWorkers   int                   `json:"solve_workers"`
		Shard          *imdpp.ShardPoolStats `json:"shard,omitempty"`
		DatasetsCached int                   `json:"datasets_cached"`
		UptimeSeconds  float64               `json:"uptime_seconds"`
	}{
		ServiceMetrics: d.svc.Metrics(),
		SolveWorkers:   d.workers,
		DatasetsCached: int(d.memo.Stats().Cost), // one per stored dataset
		UptimeSeconds:  time.Since(d.start).Seconds(),
	}
	if d.pool != nil {
		st := d.pool.Snapshot()
		out.Shard = &st
		// the RPC-latency histogram lives pool-side; overlay it onto the
		// service's latency block so /metrics reports all four
		out.Latency.ShardRPC = d.pool.RPCLatency()
	}
	writeJSON(w, http.StatusOK, out)
}

// errorBody is the daemon's typed error payload. Code is a stable
// machine-readable discriminator (e.g. "job_finished", "queue_full",
// "quota_exceeded"); Status carries the job's settled state where
// relevant; Tenant and RetryAfterSeconds accompany scheduling sheds.
type errorBody struct {
	Error             string          `json:"error"`
	Code              string          `json:"code,omitempty"`
	Status            imdpp.JobStatus `json:"status,omitempty"`
	Tenant            string          `json:"tenant,omitempty"`
	RetryAfterSeconds int             `json:"retry_after_seconds,omitempty"`
}

// maxRequestBody bounds a solve or sigma request body. 1 MiB holds any
// seed list a sampled dataset can name, with room to spare.
const maxRequestBody = 1 << 20

// decodeBody decodes r's JSON body into v, capped at maxRequestBody.
// On failure it writes the typed error — 413 body_too_large past the
// cap, 400 otherwise — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
			Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			Code:  "body_too_large",
		})
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody{Error: err.Error()}
	var qe *imdpp.QuotaError
	if errors.As(err, &qe) {
		// typed shed: surface the machine-readable code and the
		// Retry-After estimate both as a header and in the body
		body.Code = qe.Code
		body.Tenant = qe.Tenant
		if secs := int(qe.RetryAfter.Round(time.Second).Seconds()); secs > 0 {
			body.RetryAfterSeconds = secs
			w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		}
	}
	writeJSON(w, status, body)
}
