package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/diffusion"
	"imdpp/internal/service"
	"imdpp/internal/shard"
	"imdpp/internal/sketch"
	"imdpp/internal/wirebin"
)

// layerInputs are set-up and decorator measurements perLayer needs.
type layerInputs struct {
	gens, firstCalls []float64
	calls, groups    int64
}

// perLayer assembles the traced run's per-layer metrics: counters the
// layers expose, spans recorded around calls into them, and isolated
// microbenchmarks on inputs recorded in the run. Metrics of a layer the
// workload does not exercise read 0.
func (b *bench) perLayer(r *report, st stack, before, after counters, in layerInputs) map[string]metric {
	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	inst := &b.plan.Insts[0]

	set("dataset.gen_s", median(in.gens), "s")

	// core: the solver's own phase clocks and effort counters
	var sel, mkt, sch time.Duration
	var siEvals int
	for _, res := range r.solves() {
		sel += res.Sol.Stats.SelectTime
		mkt += res.Sol.Stats.MarketTime
		sch += res.Sol.Stats.ScheduleTime
		siEvals += res.Sol.Stats.SIEvals
	}
	set("core.select_s", sel.Seconds(), "s")
	set("core.market_s", mkt.Seconds(), "s")
	set("core.schedule_s", sch.Seconds(), "s")
	set("core.sigma_evals", float64(r.sigmaEvals), "count")
	set("core.si_evals", float64(siEvals), "count")

	// attribution of solve wall time to layers, from the span tree
	var roots []span
	rootIDs := make(map[int64]bool)
	for _, res := range r.solves() {
		rootIDs[res.SpanID] = true
	}
	var busy time.Duration
	for _, s := range r.spans {
		if rootIDs[s.ID] {
			roots = append(roots, s)
		}
		if s.Layer == layerDiffusion {
			busy += time.Duration(s.End - s.Start)
		}
	}
	attr := attribute(r.spans, roots)
	wall, accounted := 0.0, 0.0
	for _, s := range roots {
		wall += float64(s.End-s.Start) / 1e9
	}
	for _, v := range attr {
		accounted += v
	}
	set("core.self_s", attr[layerCore], "s")
	for _, l := range []string{layerService, layerShard, layerWire, layerDiffusion} {
		set("attrib."+l+"_s", attr[l], "s")
	}
	set("attrib.gap_s", wall-accounted, "s")
	coverage := 0.0
	if wall > 0 {
		coverage = accounted / wall
	}
	set("attrib.coverage", coverage, "ratio")

	// diffusion: decorator counts, and the engine replay
	set("diffusion.samples", float64(r.samples), "count")
	set("diffusion.calls", float64(in.calls), "count")
	gpc := 0.0
	if in.calls > 0 {
		gpc = float64(in.groups) / float64(in.calls)
	}
	set("diffusion.groups_per_call", gpc, "count")
	set("diffusion.busy_s", busy.Seconds(), "s")
	rateN, grid := b.replay(0)
	rate1, _ := b.replay(1)
	set("diffusion.samples_per_s", rateN, "1/s")
	set("diffusion.samples_per_s_1t", rate1, "1/s")
	eff := 0.0
	if rate1 > 0 {
		eff = rateN / (rate1 * float64(runtime.GOMAXPROCS(0)))
	}
	set("diffusion.parallel_eff", eff, "ratio")
	// the isolated rate predicts the engine time inside solves: the
	// solves' simulated samples at the engine's width in the workload
	// (one goroutine per service operation, two one-goroutine workers)
	rate := rate1
	if _, ok := st.(*shardStack); ok {
		rate = shardWorkers * rate1
	}
	solveSamples := 0.0
	for _, res := range r.solves() {
		solveSamples += float64(res.Sol.Stats.SamplesSimulated)
	}
	pred := 0.0
	if engine := attr[layerDiffusion]; engine > 0 && rate > 0 {
		pred = solveSamples / rate / engine
	}
	set("diffusion.busy_pred_ratio", pred, "ratio")
	items := inst.p.NumItems()
	set("diffusion.reduce_us", float64(timeReps(5, 100, func() { diffusion.ReduceSampleGrid(grid, items) }))/1e3, "us")

	// wire: sample-grid and problem codecs
	enc := diffusion.AppendSampleGrid(nil, grid)
	buf := make([]byte, 0, len(enc))
	mbps := func(d time.Duration) float64 { return float64(len(enc)) / 1e6 / d.Seconds() }
	set("wire.grid_encode_mb_s", mbps(timeReps(5, 100, func() { buf = diffusion.AppendSampleGrid(buf[:0], grid) })), "MB/s")
	set("wire.grid_decode_mb_s", mbps(timeReps(5, 100, func() {
		if _, err := diffusion.DecodeSampleGrid(wirebin.NewReader(enc)); err != nil {
			panic(err) // a grid this process encoded must decode
		}
	})), "MB/s")
	upload := shard.EncodeProblem(inst.p).AppendBinary(nil)
	set("wire.problem_bytes", float64(len(upload)), "bytes")
	set("wire.problem_encode_ms", float64(timeReps(5, 4, func() { shard.EncodeProblem(inst.p).AppendBinary(nil) }))/1e6, "ms")
	set("wire.problem_decode_ms", float64(timeReps(5, 4, func() {
		u, err := shard.DecodeProblemUploadBinary(upload)
		if err == nil {
			_, err = shard.DecodeProblem(u)
		}
		if err != nil {
			panic(err)
		}
	}))/1e6, "ms")

	// gridcache and service, from the service's counters
	d := func(a, b uint64) float64 { return float64(a - b) }
	g0, g1 := before.svc.Grid, after.svc.Grid
	set("gridcache.lookups", d(g1.Lookups, g0.Lookups), "count")
	set("gridcache.hits", d(g1.Hits, g0.Hits), "count")
	hr := 0.0
	if g1.Lookups > g0.Lookups {
		hr = d(g1.Hits, g0.Hits) / d(g1.Lookups, g0.Lookups)
	}
	set("gridcache.hit_ratio", hr, "ratio")
	set("gridcache.samples_saved", d(g1.SamplesSaved, g0.SamplesSaved), "count")
	set("gridcache.evictions", d(g1.Evictions, g0.Evictions), "count")
	set("gridcache.bytes", float64(g1.Bytes), "bytes")

	var submits, queues, cached []float64
	for i, res := range r.results {
		switch k := b.plan.Ops[i].Kind; {
		case res.Submit > 0 && k == opRepeat:
			cached = append(cached, res.Wall.Seconds()*1e3)
			submits = append(submits, res.Submit.Seconds()*1e6)
		case res.Submit > 0:
			submits = append(submits, res.Submit.Seconds()*1e6)
			queues = append(queues, res.Queue.Seconds()*1e3)
		}
	}
	s0, s1 := before.svc, after.svc
	set("service.submit_us", median(submits), "us")
	set("service.queue_wait_p50_ms", median(queues), "ms")
	set("service.cached_p50_ms", median(cached), "ms")
	rhr := 0.0
	if n := d(s1.CacheHits, s0.CacheHits) + d(s1.CacheMisses, s0.CacheMisses); n > 0 {
		rhr = d(s1.CacheHits, s0.CacheHits) / n
	}
	set("service.result_hit_ratio", rhr, "ratio")
	set("service.coalesced", d(s1.Coalesced, s0.Coalesced), "count")
	opt := core.Options{Seed: inst.SolveSeed}
	set("service.hash_us", float64(timeReps(5, 20, func() { service.HashRequest(inst.p, opt, false) }))/1e3, "us")

	// sketch: isolated build and coverage query, plus the service's counters
	par := sketch.Params{Epsilon: sketchEps, Delta: sketchEps, Seed: inst.SolveSeed}
	var sk *sketch.Sketch
	set("sketch.build_ms", float64(timeReps(3, 1, func() {
		var err error
		if sk, err = sketch.Build(inst.static, par, 0, nil); err != nil {
			panic(err) // valid (ε, δ) on a generated problem
		}
	}))/1e6, "ms")
	var sc sketch.Scratch
	var queryGroups [][]diffusion.Seed
	var sketchWalls []float64
	for i, o := range b.plan.Ops {
		if o.Kind == opSketch || o.Kind == opSigma {
			if o.Inst == 0 {
				queryGroups = append(queryGroups, o.Seeds)
			}
		}
		if o.Kind == opSketch {
			sketchWalls = append(sketchWalls, r.results[i].Wall.Seconds()*1e3)
		}
	}
	set("sketch.estimate_us", float64(timeReps(5, 20, func() {
		for _, g := range queryGroups {
			sk.Estimate(g, nil, nil, &sc)
		}
	}))/1e3/float64(max(1, len(queryGroups))), "us")
	set("sketch.query_ms", median(sketchWalls), "ms")
	set("sketch.builds", d(s1.Sketch.Builds, s0.Sketch.Builds), "count")
	set("sketch.cache_hits", d(s1.Sketch.CacheHits, s0.Sketch.CacheHits), "count")

	// shard: the pool's counters and the transport's RPC timings
	p0, p1 := before.pool, after.pool
	var rpc []float64
	for _, s := range r.spans {
		if s.Layer == layerWire && s.Name == shard.PathEstimate {
			rpc = append(rpc, float64(s.End-s.Start)/1e6)
		}
	}
	histP50 := 0.0
	if ss, ok := st.(*shardStack); ok {
		histP50 = ss.pool.RPCLatency().P50Ms
	}
	set("shard.rpc_p50_ms", median(rpc), "ms")
	set("shard.rpc_p90_ms", quantile(rpc, 0.9), "ms")
	set("shard.rpc_hist_p50_ms", histP50, "ms")
	set("shard.bytes_tx", d(p1.BytesTx, p0.BytesTx), "bytes")
	set("shard.bytes_rx", d(p1.BytesRx, p0.BytesRx), "bytes")
	set("shard.redispatches", d(p1.Redispatches, p0.Redispatches), "count")
	set("shard.speculative_hits", d(p1.SpeculativeHits, p0.SpeculativeHits), "count")
	set("shard.local_fallbacks", d(p1.LocalFallbacks, p0.LocalFallbacks), "count")
	set("shard.first_call_s", median(in.firstCalls), "s")

	// obs: the program's own tracer, and the tracing overhead
	spans, dropped := 0, 0
	for _, t := range r.obsTraces {
		spans += len(t.Spans)
		dropped += t.Dropped
	}
	set("obs.spans", float64(spans), "count")
	set("obs.dropped", float64(dropped), "count")
	set("obs.overhead_frac", r.overhead, "ratio")
	return m
}

// replay re-runs the captured engine calls of the run's first solve on
// fresh in-process engines with the given worker count (0 → GOMAXPROCS)
// and returns the samples simulated per second. It also returns the
// sample grid of the solve's largest batch, the input of the reduce
// and codec microbenchmarks.
func (b *bench) replay(workers int) (float64, [][]diffusion.SampleResult) {
	var (
		samples uint64
		busy    time.Duration
		largest struct {
			e *diffusion.Estimator
			c call
		}
	)
	for _, te := range b.rec.captured {
		if !te.capture {
			continue
		}
		e := diffusion.NewEstimator(te.p, te.samples, te.seed)
		e.Workers = workers
		t0 := time.Now()
		for _, c := range te.log {
			switch c.name {
			case "Reseed":
				e.Reseed(c.seed)
			case "Sigma":
				e.Sigma(c.groups[0])
			case "Run":
				e.Run(c.groups[0], c.market, c.withPi)
			case "RunBatch":
				e.RunBatch(c.groups, c.market)
			case "RunBatchPi":
				e.RunBatchPi(c.groups, c.market)
			case "RunBatchMasked":
				e.RunBatchMasked(c.groups, c.masks, c.withPi)
			case "SigmaBatch":
				e.SigmaBatch(c.groups)
			case "MeanWeights":
				e.MeanWeights(c.groups[0], c.users)
			}
			if len(c.groups) > len(largest.c.groups) && c.users == nil {
				largest.e, largest.c = diffusion.NewEstimator(te.p, te.samples, e.Seed), c
			}
		}
		busy += time.Since(t0)
		samples += e.SamplesDone()
	}
	rate := 0.0
	if busy > 0 {
		rate = float64(samples) / busy.Seconds()
	}
	var grid [][]diffusion.SampleResult
	if largest.e != nil {
		c := largest.c
		grid = largest.e.RunBatchSamples(c.groups, c.market, c.masks, c.withPi, 0, largest.e.M)
	}
	return rate, grid
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
