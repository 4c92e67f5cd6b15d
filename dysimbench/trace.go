package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/diffusion"
)

// This file is the traced run's instrumentation. Every span is recorded
// by the benchmark from outside the program, around calls into a
// layer's public surface: the solve or service call, each call into the
// estimation backend (a decorating core.EstimatorFactory), each shard
// RPC (a decorating http.RoundTripper) and each worker request (a
// wrapping http.Handler). Spans stay in memory and are written out when
// the run ends.

// Layer names used for attribution.
const (
	layerService   = "service"
	layerCore      = "core"
	layerDiffusion = "diffusion"
	layerShard     = "shard"
	layerWire      = "wire"
	layerSketch    = "sketch"
	layerQuery     = "query"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the recorder's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans. A nil recorder records
// nothing, so untraced runs take the same code paths.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	// cur is the span that estimators created without a span-carrying
	// context nest under: the solve client's current solve.
	cur atomic.Int64
	// captureParent selects the estimators whose calls are kept for the
	// engine replay microbenchmark (those created under this span).
	captureParent atomic.Int64
	// calls and groups count estimator calls and the groups they carried.
	calls, groups atomic.Int64

	mu       sync.Mutex
	spans    []span
	captured []*tracedEstimator
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

func (r *recorder) at(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return int64(t.Sub(r.epoch))
}

func (r *recorder) now() int64 { return r.at(time.Now()) }

func (r *recorder) add(s span) {
	if r == nil || s.ID == 0 {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) resetCounts() {
	if r != nil {
		r.calls.Store(0)
		r.groups.Store(0)
	}
}

func (r *recorder) counts() (calls, groups int64) {
	if r == nil {
		return 0, 0
	}
	return r.calls.Load(), r.groups.Load()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanKey carries the id of the benchmark span an operation runs under
// through the context the program hands to its estimators.
type spanKey struct{}

// estKey carries the decorating estimator to the RPC transport, whose
// spans nest under the estimator call in flight.
type estKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

// call is one recorded estimator call, replayed by the engine
// microbenchmark.
type call struct {
	name   string
	groups [][]diffusion.Seed
	market []bool
	masks  [][]bool
	withPi bool
	seed   uint64 // Reseed argument
	users  []int  // MeanWeights users
}

// tracedEstimator times every call into the estimation backend it
// wraps. It forwards the optional grid-cache faces, without which
// core.AttachGridCache would silently leave the wrapped engine uncached.
type tracedEstimator struct {
	inner   core.Estimator
	rec     *recorder
	layer   string
	parent  int64
	samples int
	seed    uint64
	p       *diffusion.Problem
	cur     atomic.Int64 // call in flight, the parent of RPC spans
	capture bool
	log     []call // captured calls, in order
}

// tracedFactory decorates f. layer names what the wrapped backend is.
func tracedFactory(rec *recorder, layer string, f core.EstimatorFactory) core.EstimatorFactory {
	return func(p *diffusion.Problem, samples int, seed uint64, workers int) core.Estimator {
		e := &tracedEstimator{
			inner: f(p, samples, seed, workers), rec: rec, layer: layer,
			parent: rec.cur.Load(), samples: samples, seed: seed, p: p,
		}
		e.capture = e.parent != 0 && e.parent == rec.captureParent.Load()
		if e.capture {
			rec.mu.Lock()
			rec.captured = append(rec.captured, e)
			rec.mu.Unlock()
		}
		return e
	}
}

func (e *tracedEstimator) do(name string, groups int, c call, f func()) {
	id := e.rec.newID()
	e.cur.Store(id)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	e.rec.calls.Add(1)
	e.rec.groups.Add(int64(groups))
	e.rec.add(span{ID: id, Parent: e.parent, Name: name, Layer: e.layer, Start: e.rec.at(t0), End: e.rec.at(t0.Add(d))})
	if e.capture {
		c.name = name
		c.groups = copyGroups(c.groups)
		e.log = append(e.log, c)
	}
}

func copyGroups(groups [][]diffusion.Seed) [][]diffusion.Seed {
	out := make([][]diffusion.Seed, len(groups))
	for i, g := range groups {
		out[i] = append([]diffusion.Seed(nil), g...)
	}
	return out
}

func (e *tracedEstimator) Bind(ctx context.Context) {
	if id, ok := ctx.Value(spanKey{}).(int64); ok {
		// a query carrying its own span is never the captured solve
		e.parent = id
		e.capture = false
	}
	e.inner.Bind(context.WithValue(ctx, estKey{}, e))
}

func (e *tracedEstimator) Reseed(seed uint64) {
	e.inner.Reseed(seed)
	if e.capture {
		e.log = append(e.log, call{name: "Reseed", seed: seed})
	}
}

func (e *tracedEstimator) Sigma(seeds []diffusion.Seed) (v float64) {
	e.do("Sigma", 1, call{groups: [][]diffusion.Seed{seeds}}, func() { v = e.inner.Sigma(seeds) })
	return v
}

func (e *tracedEstimator) Run(seeds []diffusion.Seed, market []bool, withPi bool) (v diffusion.Estimate) {
	c := call{groups: [][]diffusion.Seed{seeds}, market: market, withPi: withPi}
	e.do("Run", 1, c, func() { v = e.inner.Run(seeds, market, withPi) })
	return v
}

func (e *tracedEstimator) RunBatch(groups [][]diffusion.Seed, market []bool) (v []diffusion.Estimate) {
	e.do("RunBatch", len(groups), call{groups: groups, market: market}, func() { v = e.inner.RunBatch(groups, market) })
	return v
}

func (e *tracedEstimator) RunBatchPi(groups [][]diffusion.Seed, market []bool) (v []diffusion.Estimate) {
	c := call{groups: groups, market: market, withPi: true}
	e.do("RunBatchPi", len(groups), c, func() { v = e.inner.RunBatchPi(groups, market) })
	return v
}

func (e *tracedEstimator) RunBatchMasked(groups [][]diffusion.Seed, masks [][]bool, withPi bool) (v []diffusion.Estimate) {
	c := call{groups: groups, masks: masks, withPi: withPi}
	e.do("RunBatchMasked", len(groups), c, func() { v = e.inner.RunBatchMasked(groups, masks, withPi) })
	return v
}

func (e *tracedEstimator) SigmaBatch(groups [][]diffusion.Seed) (v []float64) {
	e.do("SigmaBatch", len(groups), call{groups: groups}, func() { v = e.inner.SigmaBatch(groups) })
	return v
}

func (e *tracedEstimator) MeanWeights(seeds []diffusion.Seed, users []int) (v []float64) {
	c := call{groups: [][]diffusion.Seed{seeds}, users: users}
	e.do("MeanWeights", 1, c, func() { v = e.inner.MeanWeights(seeds, users) })
	return v
}

func (e *tracedEstimator) SamplesDone() uint64 { return e.inner.SamplesDone() }
func (e *tracedEstimator) StateBytes() uint64  { return e.inner.StateBytes() }

// AttachGrid forwards a grid-cache view exactly as core.AttachGridCache
// would have attached it to the wrapped backend.
func (e *tracedEstimator) AttachGrid(v diffusion.GridCache) {
	switch t := e.inner.(type) {
	case *diffusion.Estimator:
		t.Grid = v
	case interface{ AttachGrid(diffusion.GridCache) }:
		t.AttachGrid(v)
	}
}

// GridStats forwards the wrapped backend's cache-served counters.
func (e *tracedEstimator) GridStats() (hits, samplesSaved uint64) {
	if gs, ok := e.inner.(interface{ GridStats() (uint64, uint64) }); ok {
		return gs.GridStats()
	}
	return 0, 0
}

// spanHeader carries an RPC span id to the worker wrapper, whose span
// nests under it. Workers ignore unknown headers.
const spanHeader = "X-Dysimbench-Span"

// rpcTransport times every shard RPC from request to the end of its
// response body.
type rpcTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	est, ok := req.Context().Value(estKey{}).(*tracedEstimator)
	if !ok {
		return t.base.RoundTrip(req)
	}
	id := t.rec.newID()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	t0 := time.Now()
	name := req.URL.Path
	finish := func() {
		t.rec.add(span{ID: id, Parent: est.cur.Load(), Name: name, Layer: layerWire, Start: t.rec.at(t0), End: t.rec.now()})
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		finish()
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: finish}
	return resp, nil
}

// timedBody runs done once, at the first EOF, error or Close.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// workerHandler times each request a shard worker serves: request
// decode, simulation and response encode.
func workerHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		id := rec.newID()
		t0 := time.Now()
		h.ServeHTTP(w, r)
		rec.add(span{ID: id, Parent: parent, Name: "worker " + r.URL.Path, Layer: layerDiffusion, Start: rec.at(t0), End: rec.now()})
	})
}

// attribute splits the wall time of the given root spans across
// layers. Every instant goes to the deepest spans active at it, shared
// equally among concurrent siblings, so parallel RPCs are not counted
// twice and the layer times of a root sum to its duration. Children
// are clipped to their parent's interval.
func attribute(spans []span, roots []span) map[string]float64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	var visit func(s span, lo, hi int64, f float64)
	visit = func(s span, lo, hi int64, f float64) {
		type event struct {
			t     int64
			start bool
			k     int
		}
		var cs []span
		for _, c := range kids[s.ID] {
			c.Start, c.End = max(c.Start, lo), min(c.End, hi)
			if c.End > c.Start {
				cs = append(cs, c)
			}
		}
		evs := make([]event, 0, 2*len(cs))
		for i, c := range cs {
			evs = append(evs, event{c.Start, true, i}, event{c.End, false, i})
		}
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].t != evs[b].t {
				return evs[a].t < evs[b].t
			}
			return !evs[a].start && evs[b].start
		})
		share := make([]float64, len(cs))
		active := make(map[int]bool)
		prev := lo
		for _, ev := range evs {
			if seg := float64(ev.t - prev); seg > 0 {
				if len(active) == 0 {
					out[s.Layer] += seg * f
				}
				for k := range active {
					share[k] += seg / float64(len(active))
				}
			}
			prev = ev.t
			if ev.start {
				active[ev.k] = true
			} else {
				delete(active, ev.k)
			}
		}
		out[s.Layer] += float64(hi-prev) * f
		for i, c := range cs {
			visit(c, c.Start, c.End, f*share[i]/float64(c.End-c.Start))
		}
	}
	for _, r := range roots {
		if r.End > r.Start {
			visit(r, r.Start, r.End, 1)
		}
	}
	for k, v := range out {
		out[k] = v / 1e9
	}
	return out
}
