package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/dataset"
	"imdpp/internal/diffusion"
	"imdpp/internal/graph"
	"imdpp/internal/pin"
)

func sampleProblem(t testing.TB, budget float64, T int) *diffusion.Problem {
	t.Helper()
	d, err := dataset.AmazonSample()
	if err != nil {
		t.Fatal(err)
	}
	return d.Clone(budget, T)
}

// serveWorker serves w's shard RPC and /healthz; wrap, when non-nil,
// sits in front of the mux.
func serveWorker(t testing.TB, w *Worker, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	w.Mount(mux)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// newFleet boots n in-process shard workers and returns a pool over
// them plus the workers for white-box inspection.
func newFleet(t testing.TB, n int) (*Pool, []*Worker, []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	workers := make([]*Worker, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		workers[i] = NewWorker(WorkerConfig{Workers: 2})
		servers[i] = serveWorker(t, workers[i], nil)
		urls[i] = servers[i].URL
	}
	pool := NewPool(urls, nil)
	t.Cleanup(pool.Close)
	return pool, workers, servers
}

func groupsFor(p *diffusion.Problem) [][]diffusion.Seed {
	return [][]diffusion.Seed{
		{{User: 1, Item: 0, T: 1}},
		{{User: 2, Item: 1, T: 1}, {User: 5, Item: 0, T: 2}},
		{{User: 9, Item: 2, T: 1}},
		{},
	}
}

func requireSameEstimates(t *testing.T, label string, want, got []diffusion.Estimate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d estimates", label, len(want), len(got))
	}
	for g := range want {
		w, gg := want[g], got[g]
		same := func(name string, a, b float64) {
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: group %d %s differs: %v (%x) vs %v (%x)",
					label, g, name, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
		same("sigma", w.Sigma, gg.Sigma)
		same("market_sigma", w.MarketSigma, gg.MarketSigma)
		same("pi", w.Pi, gg.Pi)
		same("adoptions", w.Adoptions, gg.Adoptions)
		if len(w.PerItem) != len(gg.PerItem) {
			t.Fatalf("%s: group %d PerItem lengths %d vs %d", label, g, len(w.PerItem), len(gg.PerItem))
		}
		for j := range w.PerItem {
			same("per_item", w.PerItem[j], gg.PerItem[j])
		}
	}
}

func TestPlan(t *testing.T) {
	// spans pins the split exactly: as even as possible, the first
	// m%shards ranges one sample longer, never an empty range
	cases := []struct {
		m, shards int
		spans     []int
	}{
		{10, 1, []int{10}},
		{10, 2, []int{5, 5}},
		{10, 3, []int{4, 3, 3}},             // remainder on the leading ranges
		{13, 7, []int{2, 2, 2, 2, 2, 2, 1}}, // remainder spread one apiece
		{10, 7, []int{2, 2, 2, 1, 1, 1, 1}},
		{3, 7, []int{1, 1, 1}}, // m < shards: fewer, one-sample ranges
		{1, 4, []int{1}},
		{5, 0, []int{5}}, // shards < 1 means one range
		{0, 3, nil},
	}
	for _, c := range cases {
		ranges := Plan(c.m, c.shards)
		if len(ranges) != len(c.spans) {
			t.Fatalf("Plan(%d,%d) returned %d ranges, want %d", c.m, c.shards, len(ranges), len(c.spans))
		}
		next := 0
		for i, r := range ranges {
			if r.Lo != next || r.Span() != c.spans[i] {
				t.Fatalf("Plan(%d,%d) = %+v, want contiguous spans %v", c.m, c.shards, ranges, c.spans)
			}
			next = r.Hi
		}
		if next != c.m {
			t.Fatalf("Plan(%d,%d) covers [0,%d), want [0,%d)", c.m, c.shards, next, c.m)
		}
	}
}

func TestProblemCodecRoundTrip(t *testing.T) {
	p := sampleProblem(t, 120, 3)
	decoded, err := DecodeProblem(EncodeProblem(p))
	if err != nil {
		t.Fatal(err)
	}
	// the content address is self-verifying: encode→decode must land on
	// the same key
	if h1, h2 := p.ContentDigest(), decoded.ContentDigest(); h1 != h2 {
		t.Fatalf("codec changed the content address: %s vs %s", h1, h2)
	}
	// and the decoded problem must drive the engine bit-identically
	groups := groupsFor(p)
	a := diffusion.NewEstimator(p, 16, 42)
	b := diffusion.NewEstimator(decoded, 16, 42)
	requireSameEstimates(t, "codec", a.RunBatchPi(groups, nil), b.RunBatchPi(groups, nil))
}

// TestShardedBitIdenticalGolden is the acceptance pin: sharded σ/π
// over 1, 2 and 7 workers is bit-for-bit the single-process result.
func TestShardedBitIdenticalGolden(t *testing.T) {
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	mask := make([]bool, p.NumUsers())
	for u := 0; u < p.NumUsers()/2; u++ {
		mask[u] = true
	}
	const m, seed = 13, 99
	localEst := diffusion.NewEstimator(p, m, seed)
	plain := localEst.RunBatch(groups, nil)
	withPi := localEst.RunBatchPi(groups, mask)
	masked := localEst.RunBatchMasked(groups, [][]bool{mask, nil, mask, nil}, true)

	for _, shards := range []int{1, 2, 7} {
		pool, _, _ := newFleet(t, shards)
		est := NewEstimator(pool, p, m, seed, 2)
		label := fmt.Sprintf("shards=%d", shards)
		requireSameEstimates(t, label+" RunBatch", plain, est.RunBatch(groups, nil))
		requireSameEstimates(t, label+" RunBatchPi", withPi, est.RunBatchPi(groups, mask))
		requireSameEstimates(t, label+" RunBatchMasked", masked, est.RunBatchMasked(groups, [][]bool{mask, nil, mask, nil}, true))
		st := pool.Snapshot()
		if st.Healthy != shards || st.LocalFallbacks != 0 {
			t.Fatalf("%s: pool snapshot %+v expected all-healthy, no fallback", label, st)
		}
		if st.BytesTx == 0 || st.BytesRx == 0 {
			t.Fatalf("%s: wire byte counters empty: %+v", label, st)
		}
	}
}

// TestSpeculativeRedispatch pairs a deliberately slow worker with a
// fast one: the fast worker finishes its range, the slow one's range
// crosses the 2×-median straggler threshold, and the coordinator's
// speculative duplicate on the idle fast worker must win — results
// bit-identical, speculative_hits incremented, nobody marked failed.
func TestSpeculativeRedispatch(t *testing.T) {
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 8, 17
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)

	newWorkerServer := func(delay time.Duration) *httptest.Server {
		w := NewWorker(WorkerConfig{Workers: 2})
		mux := http.NewServeMux()
		w.Mount(mux)
		handler := http.Handler(mux)
		if delay > 0 {
			handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == PathEstimate {
					select {
					case <-time.After(delay):
					case <-r.Context().Done():
						return
					}
				}
				mux.ServeHTTP(rw, r)
			})
		}
		srv := httptest.NewServer(handler)
		t.Cleanup(srv.Close)
		return srv
	}
	fast := newWorkerServer(0)
	slow := newWorkerServer(800 * time.Millisecond)

	pool := NewPool([]string{fast.URL, slow.URL}, nil)
	t.Cleanup(pool.Close)
	pool.specMin = 5 * time.Millisecond
	pool.specTick = 2 * time.Millisecond

	est := NewEstimator(pool, p, m, seed, 2)
	start := time.Now()
	requireSameEstimates(t, "speculated batch", want, est.RunBatch(groups, nil))
	elapsed := time.Since(start)

	st := pool.Snapshot()
	if st.SpeculativeHits == 0 {
		t.Fatalf("straggler never speculated: %+v (batch took %v)", st, elapsed)
	}
	if st.Healthy != 2 {
		t.Fatalf("speculation blamed a worker: %+v", st)
	}
	if st.LocalFallbacks != 0 {
		t.Fatalf("speculation fell back locally: %+v", st)
	}
	if elapsed >= 800*time.Millisecond {
		t.Fatalf("batch waited out the straggler (%v) — speculation bought nothing", elapsed)
	}
}

// TestShardedSolveGolden runs the full Dysim pipeline over sharded
// backends across 1/2/7 workers, pinning each Solution against the
// plain in-process solve.
func TestShardedSolveGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full solve; skipped under -short")
	}
	p := sampleProblem(t, 100, 2)
	opt := core.Options{MC: 8, MCSI: 4, CandidateCap: 32, Seed: 7}
	want, err := core.Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 7} {
		label := fmt.Sprintf("shards=%d", shards)
		pool, workers, _ := newFleet(t, shards)
		opt.Backend = Backend(pool)
		got, err := core.Solve(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want.Sigma) != math.Float64bits(got.Sigma) {
			t.Fatalf("%s: sharded solve σ %v != local %v", label, got.Sigma, want.Sigma)
		}
		if len(want.Seeds) != len(got.Seeds) {
			t.Fatalf("%s: seed counts differ: %d vs %d", label, len(got.Seeds), len(want.Seeds))
		}
		for i := range want.Seeds {
			if want.Seeds[i] != got.Seeds[i] {
				t.Fatalf("%s: seed %d differs: %+v vs %+v", label, i, got.Seeds[i], want.Seeds[i])
			}
		}
		var served uint64
		for _, w := range workers {
			served += w.Stats().ShardsServed
		}
		if served == 0 {
			t.Fatalf("%s: no shards reached the workers — the solve ran locally", label)
		}
	}
}

// TestFailoverWorkerDeath kills one of two workers mid-fleet and
// checks the batch still completes bit-identically via re-dispatch.
func TestFailoverWorkerDeath(t *testing.T) {
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 12, 5
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)

	pool, _, servers := newFleet(t, 2)
	est := NewEstimator(pool, p, m, seed, 2)
	// warm both workers, then kill one
	requireSameEstimates(t, "warm", want, est.RunBatch(groups, nil))
	servers[1].Close()
	requireSameEstimates(t, "after death", want, est.RunBatch(groups, nil))

	st := pool.Snapshot()
	if st.Healthy != 1 {
		t.Fatalf("dead worker still in rotation: %+v", st)
	}
	if st.Redispatches == 0 && st.LocalFallbacks == 0 {
		t.Fatalf("death produced neither redispatch nor fallback: %+v", st)
	}
	// with the whole fleet dead the estimator degrades to local compute
	servers[0].Close()
	requireSameEstimates(t, "fleet dead", want, est.RunBatch(groups, nil))
}

// TestShardedSamplesDone: SamplesDone grows by k·M per batch whoever
// simulates the ranges — the workers of a healthy fleet, the local
// engine for a range no worker answers, or the local engine alone for
// a dead fleet — and the estimates stay bit-identical throughout.
func TestShardedSamplesDone(t *testing.T) {
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 12, 5
	want := diffusion.NewEstimator(p, m, seed).RunBatchPi(groups, nil)
	perBatch := uint64(len(groups) * m)

	// failUpper refuses every range but the first, so the second range
	// of a two-worker plan fails on both workers and runs locally
	failUpper := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathEstimate {
				body, _ := io.ReadAll(r.Body)
				if req, err := DecodeEstimateRequestBinary(body); err == nil && req.Lo > 0 {
					http.Error(rw, "refused", http.StatusInternalServerError)
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(rw, r)
		})
	}
	newPool := func(n int, wrap func(http.Handler) http.Handler) *Pool {
		urls := make([]string, n)
		for i := range urls {
			urls[i] = serveWorker(t, NewWorker(WorkerConfig{Workers: 2}), wrap).URL
		}
		pool := NewPool(urls, nil)
		t.Cleanup(pool.Close)
		return pool
	}
	for _, tc := range []struct {
		name     string
		pool     *Pool
		fallback bool // a range must have run locally
	}{
		{"healthy fleet", newPool(2, nil), false},
		{"fallback range", newPool(2, failUpper), true},
		{"dead fleet", newPool(0, nil), true},
	} {
		est := NewEstimator(tc.pool, p, m, seed, 2)
		for batch := uint64(1); batch <= 2; batch++ {
			requireSameEstimates(t, tc.name, want, est.RunBatchPi(groups, nil))
			if got := est.SamplesDone(); got != batch*perBatch {
				t.Fatalf("%s: SamplesDone %d after batch %d, want %d", tc.name, got, batch, batch*perBatch)
			}
		}
		if st := tc.pool.Snapshot(); (st.LocalFallbacks > 0) != tc.fallback {
			t.Fatalf("%s: local fallbacks %d, want fallback=%v", tc.name, st.LocalFallbacks, tc.fallback)
		}
	}
}

// TestWorkerRestartReupload drops a worker's problem store (the
// observable effect of a restart) and checks the unknown_problem
// re-upload path recovers transparently.
func TestWorkerRestartReupload(t *testing.T) {
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 6, 11
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)

	pool, workers, _ := newFleet(t, 1)
	est := NewEstimator(pool, p, m, seed, 2)
	requireSameEstimates(t, "first", want, est.RunBatch(groups, nil))
	workers[0].DropProblems()
	requireSameEstimates(t, "after restart", want, est.RunBatch(groups, nil))
	if st := pool.Snapshot(); st.Healthy != 1 {
		t.Fatalf("restart marked the worker unhealthy: %+v", st)
	}
}

// TestWorkerRejectsHostileRequests pins the worker's input guards: a
// zero-vertex graph payload smuggling arcs must fail decoding (not
// panic in CSR rebuild), an upload carrying a non-finite or
// out-of-range float is refused bad_request, an estimate frame whose
// groups × span work bound is absurd must be rejected before
// allocation, and a body that is not a binary frame is refused by
// media type.
func TestWorkerRejectsHostileRequests(t *testing.T) {
	// corrupt graph: n=0 with a dangling arc
	_, err := DecodeProblem(ProblemUpload{
		Users: 0, Items: 0,
		Graph: graph.Export{N: 0, OutOff: []int32{0}, OutTo: []int32{3}, OutW: []float64{0.5}},
	})
	if err == nil {
		t.Fatal("zero-vertex graph with arcs decoded without error")
	}
	// NaN weight: both w <= 0 and w > 1 are false for NaN, so a naive
	// range check would wave it through into the diffusion engine
	if _, err := graph.Import(graph.Export{
		N: 2, OutOff: []int32{0, 1, 1}, OutTo: []int32{1}, OutW: []float64{math.NaN()},
	}); err == nil {
		t.Fatal("NaN arc weight imported without error")
	}
	// out-of-range meta index in a relevance row: must fail typed, not
	// panic inside EvalContribs
	good := EncodeProblem(sampleProblem(t, 120, 3))
	bad := good
	bad.Rows = append([][]pin.PairRel(nil), good.Rows...)
	bad.Rows[0] = []pin.PairRel{{Y: 1, Contribs: []pin.Contrib{{Meta: 200, S: 0.5}}}}
	if _, err := DecodeProblem(bad); err == nil {
		t.Fatal("out-of-range meta index decoded without error")
	}

	pool, workers, servers := newFleet(t, 1)
	blob := NewProblemBlob(sampleProblem(t, 120, 3))
	pool.probeUnprobed() // nothing is dispatchable before its first probe
	r := pool.healthyRemotes()[0]
	if err := pool.ensureProblem(context.Background(), r, blob); err != nil {
		t.Fatal(err)
	}
	// one float field at a time; the upload's slices are views of the
	// problem, so each case edits a copy
	floats := []struct {
		name, want string // want: a fragment of the decode error
		edit       func(u *ProblemUpload)
	}{
		{"NaN initial weighting", "weighting", func(u *ProblemUpload) { u.InitWeights = withAt(u.InitWeights, 0, math.NaN()) }},
		{"initial weighting above 1", "weighting", func(u *ProblemUpload) { u.InitWeights = withAt(u.InitWeights, 0, 1.5) }},
		{"negative initial weighting", "weighting", func(u *ProblemUpload) { u.InitWeights = withAt(u.InitWeights, 0, -0.1) }},
		{"NaN relevance", "relevance", func(u *ProblemUpload) { u.Rows = withRelevance(u.Rows, math.NaN()) }},
		{"relevance of 1", "relevance", func(u *ProblemUpload) { u.Rows = withRelevance(u.Rows, 1) }},
		{"negative relevance", "relevance", func(u *ProblemUpload) { u.Rows = withRelevance(u.Rows, -0.5) }},
		{"NaN base preference", "base_pref", func(u *ProblemUpload) { u.BasePref = withAt(u.BasePref, 7, math.NaN()) }},
		{"infinite cost", "cost", func(u *ProblemUpload) { u.Cost = withAt(u.Cost, 3, math.Inf(1)) }},
		{"NaN importance", "importance", func(u *ProblemUpload) { u.Importance = withAt(u.Importance, 1, math.NaN()) }},
	}
	for _, c := range floats {
		bad := good
		c.edit(&bad)
		if _, err := DecodeProblem(bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: decode error %v, want one naming %q", c.name, err, c.want)
		}
		status, eb := postShard(t, servers[0].URL+PathProblems, ContentTypeBinary, bad.AppendBinary(nil))
		if status != http.StatusBadRequest || eb.Code != CodeBadRequest {
			t.Fatalf("%s: upload status %d body %+v, want 400 %q", c.name, status, eb, CodeBadRequest)
		}
	}
	if got := workers[0].Stats().ProblemsCached; got != 1 {
		t.Fatalf("worker stores %d problems after the hostile uploads, want only the good one", got)
	}

	req := &EstimateRequest{
		Problem: blob.Key,
		Lo:      0,
		Hi:      1 << 40,
		Groups:  [][]diffusion.Seed{{}},
	}
	status, eb := postShard(t, servers[0].URL+PathEstimate, ContentTypeBinary, req.AppendBinary(nil))
	if status != http.StatusBadRequest || eb.Code != CodeBadRequest {
		t.Fatalf("oversized estimate: status %d body %+v, want 400 %q", status, eb, CodeBadRequest)
	}
	// the rejection must come from the work-unit guard, not from an
	// earlier decode or media-type check
	if !strings.Contains(eb.Error, "-unit bound") {
		t.Fatalf("oversized estimate rejected for the wrong reason: %q", eb.Error)
	}
	// the same request as JSON is refused by media type: there is no
	// JSON decoder left on the worker
	body, _ := json.Marshal(req)
	status, eb = postShard(t, servers[0].URL+PathEstimate, "application/json", body)
	if status != http.StatusUnsupportedMediaType || eb.Code != CodeBadRequest {
		t.Fatalf("JSON estimate: status %d body %+v, want 415 %q", status, eb, CodeBadRequest)
	}
	if got := workers[0].Stats().ShardsServed; got != 0 {
		t.Fatalf("hostile request counted as served: %d", got)
	}
}

// withAt returns a copy of xs with xs[i] = v.
func withAt(xs []float64, i int, v float64) []float64 {
	out := append([]float64(nil), xs...)
	out[i] = v
	return out
}

// withRelevance returns a copy of rows whose first contribution has
// relevance s.
func withRelevance(rows [][]pin.PairRel, s float64) [][]pin.PairRel {
	out := append([][]pin.PairRel(nil), rows...)
	for x, row := range out {
		if len(row) > 0 && len(row[0].Contribs) > 0 {
			out[x] = append([]pin.PairRel(nil), row...)
			out[x][0].Contribs = append([]pin.Contrib(nil), row[0].Contribs...)
			out[x][0].Contribs[0].S = s
			return out
		}
	}
	panic("no relevance row to corrupt")
}

// postShard sends one raw shard RPC body and decodes the typed error
// body of a non-200 answer.
func postShard(t *testing.T, url, contentType string, body []byte) (int, ErrorBody) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb ErrorBody
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("status %d: undecodable error body: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode, eb
}

// TestCancellationPropagates cancels a sharded solve whose only worker
// hangs, and expects the coordinator to unwind promptly with ctx.Err().
func TestCancellationPropagates(t *testing.T) {
	p := sampleProblem(t, 100, 2)

	var inFlight atomic.Int32
	mux := http.NewServeMux()
	// probes and uploads must succeed (via a real worker) so the
	// estimate is the call that hangs
	real := NewWorker(WorkerConfig{})
	realMux := http.NewServeMux()
	real.Mount(realMux)
	mux.Handle("GET /healthz", realMux)
	mux.Handle("POST "+PathProblems, realMux)
	mux.HandleFunc("POST "+PathEstimate, func(rw http.ResponseWriter, r *http.Request) {
		// drain the body so the server's background read can observe the
		// coordinator abandoning the connection
		_, _ = io.Copy(io.Discard, r.Body)
		inFlight.Add(1)
		<-r.Context().Done() // hang until the coordinator goes away
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	pool := NewPool([]string{srv.URL}, nil)
	t.Cleanup(pool.Close)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for i := 0; i < 200 && inFlight.Load() == 0; i++ {
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
	}()
	opt := core.Options{MC: 8, MCSI: 4, CandidateCap: 16, Seed: 3, Backend: Backend(pool)}
	start := time.Now()
	_, err := core.SolveCtx(ctx, p, opt)
	if err == nil {
		t.Fatal("cancelled sharded solve returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v to propagate through the coordinator", elapsed)
	}
	if inFlight.Load() == 0 {
		t.Fatal("the hanging worker was never reached; the test proved nothing")
	}
}
