package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"imdpp/internal/diffusion"
	"imdpp/internal/obs"
)

// newTracedFleet boots n shard workers that each carry their own
// tracer, so traced estimate requests produce worker spans.
func newTracedFleet(t testing.TB, n int) (*Pool, []*Worker, []*obs.Tracer) {
	t.Helper()
	urls := make([]string, n)
	workers := make([]*Worker, n)
	tracers := make([]*obs.Tracer, n)
	for i := 0; i < n; i++ {
		tracers[i] = obs.NewTracer()
		w := NewWorker(WorkerConfig{Workers: 2, Tracer: tracers[i]})
		mux := http.NewServeMux()
		w.Mount(mux)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
		workers[i] = w
	}
	pool := NewPool(urls, nil)
	t.Cleanup(pool.Close)
	return pool, workers, tracers
}

// spanNames collects the span-name set of a trace.
func spanNames(tr obs.Trace) map[string]int {
	names := make(map[string]int)
	for _, s := range tr.Spans {
		names[s.Name]++
	}
	return names
}

// TestTracePropagation is the tentpole acceptance test: a sharded
// batch under a live trace yields ONE joined trace holding the
// coordinator's batch and RPC spans plus the worker-side spans shipped
// back over the wire — all sharing the coordinator's trace id.
func TestTracePropagation(t *testing.T) {
	p := sampleProblem(t, 60, 2)
	const m, seed = 8, uint64(7)
	pool, _, workerTracers := newTracedFleet(t, 2)
	groups := groupsFor(p)

	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)

	tracer := obs.NewTracer()
	root := tracer.Start("solve_test")
	ctx := obs.ContextWithSpan(context.Background(), root)
	est := NewEstimator(pool, p, m, seed, 2)
	est.Bind(ctx)
	got := est.RunBatch(groups, nil)
	root.End()

	// tracing left the samples bit-identical
	requireSameEstimates(t, "traced shard batch", want, got)

	traces := tracer.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("coordinator traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	names := spanNames(tr)
	for _, wantName := range []string{"solve_test", "shard_batch", "shard_rpc", "worker_estimate"} {
		if names[wantName] == 0 {
			t.Fatalf("joined trace missing %q spans: %v", wantName, names)
		}
	}
	for _, s := range tr.Spans {
		if s.TraceID != tr.TraceID {
			t.Fatalf("span %q carries trace %v, want %v", s.Name, s.TraceID, tr.TraceID)
		}
	}
	// at least one worker recorded the remote trace under the SAME id
	joined := false
	for _, wt := range workerTracers {
		for _, wtr := range wt.Snapshot() {
			if wtr.TraceID == tr.TraceID {
				joined = true
			}
		}
	}
	if !joined {
		t.Fatal("no worker tracer recorded the coordinator's trace id")
	}
	if lat := pool.RPCLatency(); lat.Count == 0 {
		t.Fatal("rpc latency histogram empty after successful shards")
	}
}

// TestEstimateRequestTraceBinaryRoundTrip pins the flagTraced frame:
// trace ids survive the binary codec, and untraced requests produce
// byte-identical frames to a pre-tracing encoder (no flag, no fields).
func TestEstimateRequestTraceBinaryRoundTrip(t *testing.T) {
	req := EstimateRequest{
		Problem: diffusion.Digest{Hi: 0x0123456789abcdef, Lo: 0x0123456789abcdef},
		Seed:    7,
		Lo:      2,
		Hi:      10,
		Groups:  [][]diffusion.Seed{{{User: 1, Item: 0, T: 1}}},
		TraceID: 0xabc123,
		SpanID:  0xdef456,
	}
	b := req.AppendBinary(nil)
	if b[5]&flagTraced == 0 {
		t.Fatal("traced request frame missing flagTraced")
	}
	back, err := DecodeEstimateRequestBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.TraceID != req.TraceID || back.SpanID != req.SpanID {
		t.Fatalf("trace ids lost: %v/%v", back.TraceID, back.SpanID)
	}

	req.TraceID, req.SpanID = 0, 0
	plain := req.AppendBinary(nil)
	if plain[5]&flagTraced != 0 {
		t.Fatal("untraced request frame carries flagTraced")
	}
	back, err = DecodeEstimateRequestBinary(plain)
	if err != nil {
		t.Fatal(err)
	}
	if back.TraceID != 0 || back.SpanID != 0 {
		t.Fatalf("untraced decode produced ids: %v/%v", back.TraceID, back.SpanID)
	}
}

// TestEstimateResponseSpanBinaryRoundTrip pins the span-record wire
// encoding on the response frame.
func TestEstimateResponseSpanBinaryRoundTrip(t *testing.T) {
	resp := EstimateResponse{
		Samples: [][]diffusion.SampleResult{{{Items: []int32{0}, Counts: []float64{1}}}},
		Spans: []obs.SpanRec{
			{TraceID: 5, SpanID: 6, Parent: 7, Name: "worker_estimate",
				Start: 123456789, DurNS: 42,
				Attrs: map[string]string{"groups": "4", "lo": "0"}},
			{TraceID: 5, SpanID: 8, Parent: 6, Name: "sample_batch", Start: 1, DurNS: 2},
		},
	}
	b := resp.AppendBinary(nil)
	if b[5]&flagTraced == 0 {
		t.Fatal("span-carrying response frame missing flagTraced")
	}
	back, err := DecodeEstimateResponseBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(back.Spans))
	}
	for i := range resp.Spans {
		w, g := resp.Spans[i], back.Spans[i]
		if w.TraceID != g.TraceID || w.SpanID != g.SpanID || w.Parent != g.Parent ||
			w.Name != g.Name || w.Start != g.Start || w.DurNS != g.DurNS {
			t.Fatalf("span %d differs:\nwant %+v\ngot  %+v", i, w, g)
		}
		if len(w.Attrs) != len(g.Attrs) {
			t.Fatalf("span %d attrs differ: %v vs %v", i, w.Attrs, g.Attrs)
		}
		for k, v := range w.Attrs {
			if g.Attrs[k] != v {
				t.Fatalf("span %d attr %q: %q vs %q", i, k, v, g.Attrs[k])
			}
		}
	}

	// a span-free response stays a pre-tracing frame byte-for-byte
	resp.Spans = nil
	plain := resp.AppendBinary(nil)
	if plain[5]&flagTraced != 0 {
		t.Fatal("span-free response carries flagTraced")
	}
	back, err = DecodeEstimateResponseBinary(plain)
	if err != nil || back.Spans != nil {
		t.Fatalf("span-free decode: spans %v err %v", back.Spans, err)
	}
}
