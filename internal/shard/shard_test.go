package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/dataset"
	"imdpp/internal/diffusion"
	"imdpp/internal/fleettest"
	"imdpp/internal/graph"
	"imdpp/internal/obs"
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

	fast := serveWorker(t, NewWorker(WorkerConfig{Workers: 2}), nil)
	// the slow worker's estimates wait 800ms at a proxy in front of it
	slow := fleettest.NewProxy(serveWorker(t, NewWorker(WorkerConfig{Workers: 2}), nil).URL)
	slow.Only(isEstimate)
	slow.SetDelay(800 * time.Millisecond)
	slow.SetMode(fleettest.Delay)
	front := httptest.NewServer(slow.Handler())
	t.Cleanup(front.Close)
	t.Cleanup(slow.Close)

	pool := NewPool([]string{fast.URL, front.URL}, nil)
	t.Cleanup(pool.Close)
	pool.specMin = 5 * time.Millisecond

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

	pool, workers, servers := newFleet(t, 2)
	est := NewEstimator(pool, p, m, seed, 2)
	// warm both workers, then kill one: its listener and its streams
	requireSameEstimates(t, "warm", want, est.RunBatch(groups, nil))
	kill := func(i int) {
		servers[i].Close()
		_ = workers[i].Shutdown(context.Background())
	}
	kill(1)
	requireSameEstimates(t, "after death", want, est.RunBatch(groups, nil))

	st := pool.Snapshot()
	if st.Healthy != 1 {
		t.Fatalf("dead worker still in rotation: %+v", st)
	}
	if st.Redispatches == 0 && st.LocalFallbacks == 0 {
		t.Fatalf("death produced neither redispatch nor fallback: %+v", st)
	}
	// with the whole fleet dead the estimator degrades to local compute
	kill(0)
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

	// failUpper puts each worker behind a proxy that answers every
	// range but the first with an error frame, so the second range of a
	// two-worker plan fails on both workers and runs locally
	newPool := func(n int, failUpper bool) *Pool {
		urls := make([]string, n)
		for i := range urls {
			urls[i] = serveWorker(t, NewWorker(WorkerConfig{Workers: 2}), nil).URL
			if failUpper {
				proxy := fleettest.NewProxy(urls[i])
				proxy.Only(func(frame []byte) bool {
					req, err := DecodeEstimateRequestBinary(frame)
					return err == nil && req.Lo > 0
				})
				proxy.SetMode(fleettest.Error500)
				front := httptest.NewServer(proxy.Handler())
				t.Cleanup(front.Close)
				t.Cleanup(proxy.Close)
				urls[i] = front.URL
			}
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
		{"healthy fleet", newPool(2, false), false},
		{"fallback range", newPool(2, true), true},
		{"dead fleet", newPool(0, false), true},
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

// dialCounter wraps http.DefaultTransport, counting stream upgrades
// and whether any request carried a batch's context value.
type dialCounter struct {
	upgrades, sawBatch atomic.Int32
	fake101            bool // answer upgrades with a 101 whose body is no stream
}

type batchKey struct{}

func (d *dialCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Context().Value(batchKey{}) != nil {
		d.sawBatch.Add(1)
	}
	if req.Header.Get("Upgrade") == "" {
		return http.DefaultTransport.RoundTrip(req)
	}
	d.upgrades.Add(1)
	if d.fake101 {
		return &http.Response{StatusCode: http.StatusSwitchingProtocols, Body: io.NopCloser(strings.NewReader("")), Request: req}, nil
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestStreamDialPitfalls pins how streams are dialled. A client
// Timeout bounds each round trip but never the stream, so streams
// outlive it and are reused; streams are dialled under the pool's own
// context, never carrying a batch's values; and a 101 whose body is no
// stream fails the dial, named in the worker's LastErr, with the batch
// still bit-identical on the local engine.
func TestStreamDialPitfalls(t *testing.T) {
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 8, 23
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)
	ctx := context.WithValue(context.Background(), batchKey{}, true)

	urls := []string{serveWorker(t, NewWorker(WorkerConfig{Workers: 2}), nil).URL, serveWorker(t, NewWorker(WorkerConfig{Workers: 2}), nil).URL}
	dc := &dialCounter{}
	pool := NewPool(urls, &http.Client{Transport: dc, Timeout: 200 * time.Millisecond})
	t.Cleanup(pool.Close)
	est := NewEstimator(pool, p, m, seed, 2)
	est.Bind(ctx)
	for i := 0; i < 3; i++ {
		requireSameEstimates(t, "timeout client", want, est.RunBatch(groups, nil))
		time.Sleep(300 * time.Millisecond) // past the client Timeout
	}
	if st := pool.Snapshot(); st.LocalFallbacks != 0 || st.Redispatches != 0 || st.Healthy != 2 {
		t.Fatalf("a client Timeout tore streams down: %+v", st)
	}
	if n := dc.upgrades.Load(); n != 2 {
		t.Fatalf("%d stream upgrades for 3 batches over 2 workers, want one stream per worker, reused", n)
	}
	if n := dc.sawBatch.Load(); n != 0 {
		t.Fatalf("%d requests carried the batch's context", n)
	}

	fake := &dialCounter{fake101: true}
	pool = NewPool(urls[:1], &http.Client{Transport: fake})
	t.Cleanup(pool.Close)
	requireSameEstimates(t, "fake 101", want, NewEstimator(pool, p, m, seed, 2).RunBatch(groups, nil))
	if rs := pool.Snapshot().Remotes[0]; rs.Healthy || !strings.Contains(rs.LastErr, "io.ReadWriteCloser") {
		t.Fatalf("a 101 without a stream: %+v, want the worker out with LastErr naming io.ReadWriteCloser", rs)
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

// TestAcksBoundedByWorkerStore sends more distinct problems through
// one pool than a worker can hold: each worker's acknowledged uploads
// stay within maxProblems, the worker's store bound, and every batch
// stays bit-identical to the local engine.
func TestAcksBoundedByWorkerStore(t *testing.T) {
	base := sampleProblem(t, 100, 3)
	groups := groupsFor(base)
	const m, seed, problems = 6, 11, 40
	pool, _, _ := newFleet(t, 2)
	for i := range problems {
		p := *base
		p.Budget = float64(100 + i) // a distinct content address
		want := diffusion.NewEstimator(&p, m, seed).RunBatch(groups, nil)
		requireSameEstimates(t, fmt.Sprintf("problem %d", i), want, NewEstimator(pool, &p, m, seed, 2).RunBatch(groups, nil))
	}
	for _, rs := range pool.Snapshot().Remotes {
		if rs.Problems > maxProblems {
			t.Fatalf("%s: %d acknowledged uploads after %d problems, want ≤ %d", rs.URL, rs.Problems, problems, maxProblems)
		}
	}
}

// TestWorkerRejectsHostileRequests pins the worker's input guards: a
// zero-vertex graph payload smuggling arcs must fail decoding (not
// panic in CSR rebuild), an upload carrying a non-finite or
// out-of-range float gets a bad_request error frame, an estimate frame
// whose groups × span work bound is absurd gets one naming the bound
// before allocation, and a frame declaring a payload past the 1 GiB
// bound, or of another version or kind, closes the stream. None of it
// counts as a served shard.
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
	if err := pool.upload(context.Background(), r, blob); err != nil {
		t.Fatal(err)
	}
	s := testStream(t, pool)
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
		if se := requireErrorFrame(t, pool, s, bad.AppendBinary(nil)); se.code != CodeBadRequest || !strings.Contains(se.msg, c.want) {
			t.Fatalf("%s: upload answered %v, want %q naming %q", c.name, se, CodeBadRequest, c.want)
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
	// the rejection must come from the work-unit guard, not from an
	// earlier decode check
	if se := requireErrorFrame(t, pool, s, req.AppendBinary(nil)); se.code != CodeBadRequest || !strings.Contains(se.msg, "-unit bound") {
		t.Fatalf("oversized estimate answered %v, want %q naming the unit bound", se, CodeBadRequest)
	}

	// frames that break the framing close the stream, each on a stream
	// of its own
	huge := binary.LittleEndian.AppendUint32([]byte{'I', 'M', 'B', frameVersion, frameEstimateReq, 0}, maxFramePayload+1)
	oldVersion := req.AppendBinary(nil)
	oldVersion[3] = frameVersion - 1
	reply := (&EstimateResponse{Samples: [][]diffusion.SampleResult{{}}}).AppendBinary(nil)
	for name, frame := range map[string][]byte{
		"a payload past the bound": huge, "version 3": oldVersion, "a reply kind": reply,
	} {
		s := testStream(t, pool)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := pool.send(context.Background(), s, frame); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err := pool.recv(context.Background(), s)
		runtime.ReadMemStats(&after)
		var se *shardError
		if err == nil || errors.As(err, &se) {
			t.Fatalf("%s: answered (%v), want the stream closed", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Fatalf("%s: the worker allocated %d bytes before closing the stream", name, grew)
		}
	}
	if got := workers[0].Stats().ShardsServed; got != 0 {
		t.Fatalf("hostile request counted as served: %d", got)
	}
	_ = servers
}

// testStream dials a frame stream to pool's first worker, the way a
// coordinator does, for a test to write raw frames on.
func testStream(t testing.TB, pool *Pool) *stream {
	t.Helper()
	s, err := pool.dial(context.Background(), pool.remotes[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s
}

// requireErrorFrame sends frame on s and returns the error frame it
// must be answered with.
func requireErrorFrame(t *testing.T, pool *Pool, s *stream, frame []byte) *shardError {
	t.Helper()
	if err := pool.send(context.Background(), s, frame); err != nil {
		t.Fatal(err)
	}
	_, err := pool.recv(context.Background(), s)
	var se *shardError
	if !errors.As(err, &se) {
		t.Fatalf("answered %v, want an error frame", err)
	}
	return se
}

// isEstimate matches estimate request frames (fleettest.Proxy.Only).
func isEstimate(frame []byte) bool { return frame[4] == frameEstimateReq }

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

// TestCancellationPropagates cancels a sharded solve whose only
// worker never answers an estimate (a proxy in front of it drops them),
// and expects the coordinator to unwind promptly with ctx.Err().
func TestCancellationPropagates(t *testing.T) {
	p := sampleProblem(t, 100, 2)

	// probes and uploads reach the real worker, so the estimate is the
	// call that hangs
	proxy := fleettest.NewProxy(serveWorker(t, NewWorker(WorkerConfig{}), nil).URL)
	proxy.Only(isEstimate)
	proxy.SetMode(fleettest.Drop)
	srv := httptest.NewServer(proxy.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(proxy.Close)

	pool := NewPool([]string{srv.URL}, nil)
	t.Cleanup(pool.Close)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for i := 0; i < 200 && proxy.Faults() == 0; i++ {
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
	if proxy.Faults() == 0 {
		t.Fatal("the hanging worker was never reached; the test proved nothing")
	}
}

// TestCancelStopsWorkerEngine abandons a batch of 2²² samples (64
// groups × 2¹⁶) once a real worker has started it: closing the stream
// must stop the worker's engine (DESIGN.md §7) — its worker_estimate
// span ends within 2 s of the cancel, and nothing counts as served.
// Distinct groups are one engine family each, so the worker
// materializes a row per family it reaches, not the whole grid. On the
// Amazon-0.5 problem the whole batch is seconds of engine work, so an
// engine that ignored the close would still be running at the bound.
func TestCancelStopsWorkerEngine(t *testing.T) {
	leakCheck(t)
	d, err := dataset.Amazon(0.5)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Clone(800, 4)
	wtracer := obs.NewTracer()
	w := NewWorker(WorkerConfig{Workers: 1, Tracer: wtracer})
	pool := NewPool([]string{serveWorker(t, w, nil).URL}, nil)
	t.Cleanup(pool.Close)

	root := obs.NewTracer().Start("cancel_test")
	ctx, cancel := context.WithCancel(obs.ContextWithSpan(context.Background(), root))
	defer cancel()
	groups := make([][]diffusion.Seed, 64)
	for g := range groups {
		groups[g] = []diffusion.Seed{{User: g + 1, Item: 0, T: 1}, {User: 3*g + 7, Item: 1, T: 1}, {User: 5*g + 11, Item: 2, T: 2}}
	}
	// a small batch first, so the worker holds the problem and the only
	// request that can keep it busy below is the big estimate
	NewEstimator(pool, p, 2, 5, 1).RunBatch(groups[:1], nil)
	warm := w.Stats()
	est := NewEstimator(pool, p, 1<<16, 5, 1)
	est.Bind(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		est.RunBatch(groups, nil)
	}()
	waitUntil(t, "the worker to start the estimate", func() bool {
		w.smu.Lock()
		defer w.smu.Unlock()
		for ws := range w.streams {
			if ws.busy {
				return true
			}
		}
		return false
	})
	time.Sleep(20 * time.Millisecond) // well inside the engine's run
	cancel()
	cancelled := time.Now()
	var span obs.SpanRec
	for span.Name == "" {
		for _, tr := range wtracer.Snapshot() {
			for _, s := range tr.Spans {
				if s.Name == "worker_estimate" {
					span = s
				}
			}
		}
		if time.Since(cancelled) > 2*time.Second {
			t.Fatal("the worker's estimate still runs 2 s after the batch was abandoned")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if end := time.Unix(0, span.Start+span.DurNS); end.Sub(cancelled) > 2*time.Second {
		t.Fatalf("worker_estimate ended %v after the cancel", end.Sub(cancelled))
	}
	t.Logf("worker_estimate ended %v after the cancel (ran %v)", time.Unix(0, span.Start+span.DurNS).Sub(cancelled), time.Duration(span.DurNS))
	<-done
	t.Logf("batch returned %v after the cancel", time.Since(cancelled))
	if st := w.Stats(); st != warm {
		t.Fatalf("an abandoned estimate counted as served: %+v, %+v before it", st, warm)
	}
}
