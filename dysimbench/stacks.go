package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/diffusion"
	"imdpp/internal/obs"
	"imdpp/internal/service"
	"imdpp/internal/shard"
)

// A stack is the system under test of one workload: the layers a solve
// and a σ query pass through on their way to the diffusion engine.
//
//	serve-mixed  service (scheduler, result LRU, grid and sketch caches) → core → diffusion
//	shard-solve  core → shard pool → wirebin over loopback HTTP → two workers → diffusion
type stack interface {
	solve(o *op, inst *instance) opResult
	query(o *op, inst *instance) opResult
	counters() counters
	close()
}

// opResult is what one operation returned and how long it took.
type opResult struct {
	Wall     time.Duration
	Submit   time.Duration // service Submit call alone
	Queue    time.Duration // service queue wait
	Sol      *core.Solution
	Sigma    float64
	Samples  uint64 // campaigns a σ query simulated
	CacheHit bool
	SpanID   int64
	Err      error
}

// counters snapshots the counters the layers expose.
type counters struct {
	svc  service.Metrics
	pool shard.PoolStats
}

const (
	warmGroups   = 8  // groups in the shard pool's first call
	warmMC       = 32 // samples per group of the first call
	warmSeed     = 0x3A3A
	warmSolveMC  = 8 // selection samples of the set-up warm-up solve
	shardWorkers = 2
)

// warmOptions are the options of set-up's warm-up solve: a cheap solve
// of the first instance that runs every solver path once.
var warmOptions = core.Options{MC: warmSolveMC, MCSI: warmSolveMC / 2, Seed: warmSeed}

// warmUp is the shard pool's first call in set-up: a batch of the
// plan's first query groups, which uploads the problem to the workers.
func (b *bench) warmUp() ([][]diffusion.Seed, *diffusion.Problem) {
	var groups [][]diffusion.Seed
	for _, o := range b.plan.Ops {
		if len(o.Seeds) > 0 && len(groups) < warmGroups {
			groups = append(groups, o.Seeds)
		}
	}
	return groups, b.plan.Insts[0].p
}

// solveDirect runs one solve through core over the given backend.
func solveDirect(b *bench, f core.EstimatorFactory, traced bool, o *op, inst *instance) opResult {
	opt := core.Options{Seed: inst.SolveSeed, Order: o.Order, Backend: f}
	ctx := context.Background()
	var id int64
	var root *obs.Span
	if traced {
		id = b.rec.newID()
		b.rec.cur.Store(id)
		if o == b.captureOp {
			b.rec.captureParent.Store(id)
		}
		root = b.tracer.Start("solve")
		ctx = obs.ContextWithSpan(ctx, root)
	}
	t0 := time.Now()
	sol, err := core.SolveCtx(ctx, inst.p, opt)
	wall := time.Since(t0)
	root.End()
	if traced {
		b.rec.add(span{ID: id, Name: string(o.Kind), Layer: layerCore, Start: b.rec.at(t0), End: b.rec.at(t0.Add(wall))})
	}
	return opResult{Wall: wall, Sol: &sol, SpanID: id, Err: err}
}

// queryDirect runs one exact σ query on a fresh estimator of the
// backend, as the service's sigma path does.
func queryDirect(b *bench, f core.EstimatorFactory, traced bool, o *op, inst *instance) opResult {
	ctx := context.Background()
	var id int64
	if traced {
		id = b.rec.newID()
		ctx = withSpan(ctx, id)
	}
	t0 := time.Now()
	est := f(inst.p, sigmaMC, o.QSeed, 0)
	est.Bind(ctx)
	v := est.Run(o.Seeds, nil, false).Sigma
	wall := time.Since(t0)
	if traced {
		b.rec.add(span{ID: id, Name: string(o.Kind), Layer: layerQuery, Start: b.rec.at(t0), End: b.rec.at(t0.Add(wall))})
	}
	return opResult{Wall: wall, Sigma: v, Samples: est.SamplesDone(), SpanID: id}
}

// serveStack is serve-mixed's: an in-process service with its default
// result, grid and sketch caches.
type serveStack struct {
	b      *bench
	traced bool
	svc    *service.Service
}

func newServeStack(b *bench, traced bool) (*serveStack, error) {
	// one engine goroutine per operation: with the two clients that
	// keeps the work at nproc threads
	cfg := service.Config{SolveWorkers: 1}
	if traced {
		cfg.Tracer = b.tracer
		cfg.Backend = tracedFactory(b.rec, layerDiffusion, core.LocalEstimator)
	}
	s := &serveStack{b: b, traced: traced, svc: service.New(cfg)}
	job, _, err := s.svc.Submit(service.Request{Problem: b.plan.Insts[0].p, Options: warmOptions})
	if err == nil {
		_, err = job.Wait(context.Background())
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveStack) solve(o *op, inst *instance) opResult {
	rec := s.b.rec
	req := service.Request{Problem: inst.p, Options: core.Options{Seed: inst.SolveSeed, Order: o.Order}}
	var opID, jobID int64
	if s.traced {
		opID, jobID = rec.newID(), rec.newID()
		rec.cur.Store(jobID)
		if o == s.b.captureOp {
			rec.captureParent.Store(jobID)
		}
	}
	t0 := time.Now()
	job, _, err := s.svc.Submit(req)
	submit := time.Since(t0)
	if err != nil {
		return opResult{Wall: submit, Submit: submit, Err: err}
	}
	sol, err := job.Wait(context.Background())
	wall := time.Since(t0)
	snap := job.Snapshot()
	if s.traced {
		if !snap.CacheHit && !snap.StartedAt.IsZero() {
			rec.add(span{ID: jobID, Parent: opID, Name: "job", Layer: layerCore, Start: rec.at(snap.StartedAt), End: rec.at(snap.FinishedAt)})
		}
		rec.add(span{ID: opID, Name: string(o.Kind), Layer: layerService, Start: rec.at(t0), End: rec.at(t0.Add(wall))})
	}
	return opResult{
		Wall: wall, Submit: submit, Queue: time.Duration(snap.QueueSeconds * float64(time.Second)),
		Sol: sol, CacheHit: snap.CacheHit, SpanID: opID, Err: err,
	}
}

func (s *serveStack) query(o *op, inst *instance) opResult {
	rec := s.b.rec
	ctx := context.Background()
	var id int64
	if s.traced {
		id = rec.newID()
		ctx = withSpan(ctx, id)
	}
	p, opt, layer := inst.p, service.SigmaOptions{MC: sigmaMC, Seed: o.QSeed}, layerService
	if o.Kind == opSketch {
		// one sketch per cycle: the first query builds it, the rest hit
		p, opt, layer = inst.static, service.SigmaOptions{Epsilon: sketchEps, Delta: sketchEps, Seed: inst.SolveSeed}, layerSketch
	}
	t0 := time.Now()
	est, _, err := s.svc.Sigma(ctx, p, o.Seeds, opt)
	wall := time.Since(t0)
	if s.traced {
		rec.add(span{ID: id, Name: string(o.Kind), Layer: layer, Start: rec.at(t0), End: rec.at(t0.Add(wall))})
	}
	return opResult{Wall: wall, Sigma: est.Sigma, SpanID: id, Err: err}
}

func (s *serveStack) counters() counters { return counters{svc: s.svc.Metrics()} }
func (s *serveStack) close()             { s.svc.Close() }

// shardStack is shard-solve's: a pool with its defaults (binary codec,
// weighted planning, speculation) over two loopback workers of one
// engine goroutine each.
type shardStack struct {
	b         *bench
	traced    bool
	servers   []*httptest.Server
	pool      *shard.Pool
	factory   core.EstimatorFactory
	firstCall time.Duration
}

func newShardStack(b *bench, traced bool) (*shardStack, error) {
	s := &shardStack{b: b, traced: traced}
	urls := make([]string, shardWorkers)
	for i := range urls {
		wc := shard.WorkerConfig{Workers: 1}
		if traced {
			wc.Tracer = b.tracer
		}
		w := shard.NewWorker(wc)
		mux := http.NewServeMux()
		w.Mount(mux)
		var h http.Handler = mux
		if traced {
			h = workerHandler(b.rec, mux)
		}
		srv := httptest.NewServer(h)
		s.servers = append(s.servers, srv)
		urls[i] = srv.URL
	}
	var client *http.Client
	if traced {
		client = &http.Client{Transport: &rpcTransport{base: http.DefaultTransport, rec: b.rec}, Timeout: 10 * time.Minute}
	}
	// static workers start alive: no probe or heartbeat wait
	s.pool = shard.NewPool(urls, client)
	s.factory = shard.Backend(s.pool)
	if traced {
		s.factory = tracedFactory(b.rec, layerShard, s.factory)
	}
	// the first call uploads the warm-up problem to both workers
	groups, p := b.warmUp()
	t0 := time.Now()
	shard.NewEstimator(s.pool, p, warmMC, warmSeed, 0).RunBatch(groups, nil)
	s.firstCall = time.Since(t0)
	opt := warmOptions
	opt.Backend = shard.Backend(s.pool)
	if _, err := core.Solve(p, opt); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *shardStack) solve(o *op, inst *instance) opResult {
	return solveDirect(s.b, s.factory, s.traced, o, inst)
}

func (s *shardStack) query(o *op, inst *instance) opResult {
	return queryDirect(s.b, s.factory, s.traced, o, inst)
}

func (s *shardStack) counters() counters { return counters{pool: s.pool.Snapshot()} }

func (s *shardStack) close() {
	s.pool.Close()
	for _, srv := range s.servers {
		srv.Close()
	}
}
