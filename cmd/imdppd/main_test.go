package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imdpp"
)

func newTestDaemon(t testing.TB) (*daemon, *httptest.Server) {
	t.Helper()
	d := newDaemon(imdpp.ServiceConfig{Workers: 1, QueueDepth: 8, CacheSize: 32}, nil)
	srv := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		srv.Close()
		d.svc.Close()
	})
	return d, srv
}

func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func pollUntil(t *testing.T, url string, want func(imdpp.JobView) bool) imdpp.JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var view imdpp.JobView
		if code := getJSON(t, url, &view); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, code)
		}
		if want(view) {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

const quickSolve = `{"dataset":"sample","budget":80,"t":3,"mc":4,"mcsi":2,"candidate_cap":16,"seed":1}`

// TestDaemonEndToEnd walks the acceptance path: async solve to
// completion, identical resubmit is a cache hit with bit-identical σ,
// and a running solve aborts promptly on DELETE.
func TestDaemonEndToEnd(t *testing.T) {
	_, srv := newTestDaemon(t)

	// healthz
	var health map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK || health["ok"] != true {
		t.Fatalf("healthz: %d %v", code, health)
	}

	// async solve
	var sub solveResponse
	if code := postJSON(t, srv.URL+"/v1/solve", quickSolve, &sub); code != http.StatusAccepted {
		t.Fatalf("solve: status %d", code)
	}
	if sub.JobID == "" || sub.CacheHit || sub.Coalesced {
		t.Fatalf("unexpected submit response: %+v", sub)
	}
	done := pollUntil(t, srv.URL+"/v1/jobs/"+sub.JobID, func(v imdpp.JobView) bool {
		return v.Status == imdpp.JobDone
	})
	if done.Solution == nil || len(done.Solution.Seeds) == 0 {
		t.Fatalf("done without solution: %+v", done)
	}
	if done.ProgressEvents == 0 {
		t.Fatalf("no progress streamed: %+v", done)
	}

	// identical resubmit: O(1) cache hit, bit-identical σ
	var sub2 solveResponse
	if code := postJSON(t, srv.URL+"/v1/solve", quickSolve, &sub2); code != http.StatusAccepted {
		t.Fatalf("resolve: status %d", code)
	}
	if !sub2.CacheHit || sub2.JobID == sub.JobID || sub2.Key != sub.Key {
		t.Fatalf("resubmit not a cache hit: %+v (first %+v)", sub2, sub)
	}
	hit := pollUntil(t, srv.URL+"/v1/jobs/"+sub2.JobID, func(v imdpp.JobView) bool {
		return v.Status == imdpp.JobDone
	})
	if hit.Solution == nil || hit.Solution.Sigma != done.Solution.Sigma {
		t.Fatalf("cached σ differs: %+v vs %+v", hit.Solution, done.Solution)
	}

	// cancel a running solve. The sample count makes the uncancelled
	// solve take seconds — HTTP round trips must fit inside the window
	// between start and DELETE.
	slow := `{"dataset":"sample","budget":80,"t":3,"mc":4096,"mcsi":512,"candidate_cap":256,"seed":9}`
	var sub3 solveResponse
	if code := postJSON(t, srv.URL+"/v1/solve", slow, &sub3); code != http.StatusAccepted {
		t.Fatalf("slow solve: status %d", code)
	}
	pollUntil(t, srv.URL+"/v1/jobs/"+sub3.JobID, func(v imdpp.JobView) bool {
		return v.Status != imdpp.JobQueued
	})
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+sub3.JobID, nil)
	cancelAt := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	cancelled := pollUntil(t, srv.URL+"/v1/jobs/"+sub3.JobID, func(v imdpp.JobView) bool {
		return v.Status == imdpp.JobCancelled || v.Status == imdpp.JobDone
	})
	if cancelled.Status != imdpp.JobCancelled {
		t.Fatalf("job finished before cancel took effect: %+v", cancelled)
	}
	if latency := time.Since(cancelAt); latency > time.Second {
		t.Fatalf("cancel round trip %v, want ≤ 1s", latency)
	}

	// metrics reflect all of the above
	var m struct {
		imdpp.ServiceMetrics
		DatasetsCached int `json:"datasets_cached"`
	}
	if code := getJSON(t, srv.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.CacheHits != 1 || m.JobsCancelled != 1 || m.JobsCompleted != 2 || m.DatasetsCached != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.SamplesPerSec <= 0 {
		t.Fatalf("throughput not tracked: %+v", m)
	}
}

func TestDaemonSigma(t *testing.T) {
	_, srv := newTestDaemon(t)

	body := `{"dataset":"sample","budget":80,"t":3,"mc":32,"seed":5,"seeds":[{"user":0,"item":0,"t":1}]}`
	var e1, e2 imdpp.Estimate
	if code := postJSON(t, srv.URL+"/v1/sigma", body, &e1); code != http.StatusOK {
		t.Fatalf("sigma: status %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/sigma", body, &e2); code != http.StatusOK {
		t.Fatalf("sigma 2: status %d", code)
	}
	if e1.Sigma <= 0 || e1.Sigma != e2.Sigma {
		t.Fatalf("σ not deterministic over HTTP: %v vs %v", e1.Sigma, e2.Sigma)
	}

	// out-of-budget seed group → typed 400
	huge := `{"dataset":"sample","budget":0.001,"t":3,"mc":4,"seeds":[{"user":0,"item":0,"t":1}]}`
	var errBody map[string]string
	if code := postJSON(t, srv.URL+"/v1/sigma", huge, &errBody); code != http.StatusBadRequest {
		t.Fatalf("over-budget seeds: status %d (%v)", code, errBody)
	}
}

func TestDaemonRejectsBadInput(t *testing.T) {
	_, srv := newTestDaemon(t)

	cases := []struct {
		name, body string
	}{
		{"negative mc", `{"dataset":"sample","budget":80,"t":3,"mc":-1}`},
		{"T<1", `{"dataset":"sample","budget":80,"t":0,"mc":4}`},
		{"negative budget", `{"dataset":"sample","budget":-5,"t":3,"mc":4}`},
		{"unknown dataset", `{"dataset":"nope","budget":80,"t":3}`},
		{"unknown algo", `{"dataset":"sample","budget":80,"t":3,"algo":"magic"}`},
		{"unknown order", `{"dataset":"sample","budget":80,"t":3,"order":"XX"}`},
		{"negative scale", `{"dataset":"amazon","scale":-1,"budget":80,"t":3}`},
		{"scale past the bound", `{"dataset":"douban","scale":64,"budget":80,"t":3}`},
		{"scale just past the bound", `{"dataset":"sample","scale":8.5,"budget":80,"t":3}`},
	}
	for _, tc := range cases {
		var errBody map[string]string
		code := postJSON(t, srv.URL+"/v1/solve", tc.body, &errBody)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d want 400 (%v)", tc.name, code, errBody)
		}
		if errBody["error"] == "" {
			t.Errorf("%s: no error message", tc.name)
		}
	}

	if code := getJSON(t, srv.URL+"/v1/jobs/nosuch", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/nosuch", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job: status %d want 404", resp.StatusCode)
	}
}

// TestDaemonDatasetMemoBounded: a scale past maxScale is a typed
// Scale error that generates nothing, and the dataset memo never holds
// more than maxDatasets entries; past the bound the oldest is evicted
// and the newest kept.
func TestDaemonDatasetMemoBounded(t *testing.T) {
	d, _ := newTestDaemon(t)
	_, err := d.loadProblem(problemSpec{Dataset: "douban", Scale: 64, Budget: 80, T: 3})
	var ie *imdpp.InputError
	if !errors.As(err, &ie) || ie.Field != "Scale" {
		t.Fatalf("loadProblem(scale 64) = %v, want InputError{Field: Scale}", err)
	}
	if n := d.memo.Stats().Entries; n != 0 {
		t.Fatalf("a rejected scale memoized %d datasets", n)
	}
	// the sample dataset ignores scale, so each scale is a cheap
	// distinct memo key
	key := func(i int) dsKey { return dsKey{name: "sample", scale: float64(i) / 8} }
	for i := 1; i <= maxDatasets+3; i++ {
		if _, err := d.loadProblem(problemSpec{Dataset: "sample", Scale: key(i).scale, Budget: 80, T: 3}); err != nil {
			t.Fatal(err)
		}
		// a repeat is a memo hit and must not take a second slot
		if _, err := d.loadProblem(problemSpec{Dataset: "sample", Scale: key(i).scale, Budget: 80, T: 3}); err != nil {
			t.Fatal(err)
		}
		if n := d.memo.Stats().Entries; n > maxDatasets || n != min(i, maxDatasets) {
			t.Fatalf("after %d datasets: memo holds %d, want %d", i, n, min(i, maxDatasets))
		}
	}
	if _, ok := d.memo.Get(key(3).String()); ok {
		t.Fatal("oldest datasets were not evicted")
	}
	if _, ok := d.memo.Get(key(maxDatasets + 3).String()); !ok {
		t.Fatal("newest dataset was evicted")
	}
}

// TestDaemonDatasetBuiltOnce: concurrent first requests for one
// dataset wait for a single build, so every problem they get shares
// one Substrate (and with it the digest memo, state pool and
// clean-target tables).
func TestDaemonDatasetBuiltOnce(t *testing.T) {
	d, _ := newTestDaemon(t)
	const n = 8
	spec := problemSpec{Dataset: "amazon", Scale: 2, Budget: 80, T: 3}
	probs := make([]*imdpp.Problem, n)
	errs := make([]error, n)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := range probs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			probs[i], errs[i] = d.loadProblem(spec)
		}()
	}
	close(release)
	wg.Wait()
	for i, p := range probs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if p.Substrate != probs[0].Substrate {
			t.Fatalf("request %d got its own Substrate: the dataset was built more than once", i)
		}
	}
	// each stored dataset costs 1; Entries counts flights too
	if st := d.memo.Stats(); st.Cost != 1 || st.Entries != 1 {
		t.Fatalf("memo holds %d datasets, %d builds in flight; want 1 and 0", st.Cost, int64(st.Entries)-st.Cost)
	}
	// a failed build is returned, not memoized
	if _, err := d.loadProblem(problemSpec{Dataset: "nosuch", Budget: 80, T: 3}); err == nil {
		t.Fatal("unknown dataset loaded")
	}
	if st := d.memo.Stats(); st.Cost != 1 || st.Entries != 1 {
		t.Fatalf("a failed build left %d datasets, %d builds in flight", st.Cost, int64(st.Entries)-st.Cost)
	}
}

// TestDaemonBoundsRequestBodies: solve and sigma bodies are capped at
// maxRequestBody — past it a typed 413, a malformed body a 400 — the
// same on both routes.
func TestDaemonBoundsRequestBodies(t *testing.T) {
	_, srv := newTestDaemon(t)
	// valid JSON up to the cap, so only its size can be refused
	oversized := `{"dataset":"sample","pad":"` + strings.Repeat("x", maxRequestBody) + `"}`
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"oversized", oversized, http.StatusRequestEntityTooLarge, "body_too_large"},
		{"malformed", `{"dataset":`, http.StatusBadRequest, ""},
	}
	for _, route := range []string{"/v1/solve", "/v1/sigma"} {
		for _, tc := range cases {
			var eb errorBody
			if code := postJSON(t, srv.URL+route, tc.body, &eb); code != tc.status {
				t.Errorf("%s %s: status %d want %d (%+v)", route, tc.name, code, tc.status, eb)
			}
			if eb.Error == "" || eb.Code != tc.code {
				t.Errorf("%s %s: error body %+v, want code %q", route, tc.name, eb, tc.code)
			}
		}
	}
}

// TestDaemonCancelFinishedJobConflict pins the DELETE contract: a job
// that already settled returns 409 with a typed error body, not 200.
func TestDaemonCancelFinishedJobConflict(t *testing.T) {
	_, srv := newTestDaemon(t)

	var sub solveResponse
	if code := postJSON(t, srv.URL+"/v1/solve", quickSolve, &sub); code != http.StatusAccepted {
		t.Fatalf("solve: status %d", code)
	}
	pollUntil(t, srv.URL+"/v1/jobs/"+sub.JobID, func(v imdpp.JobView) bool {
		return v.Status == imdpp.JobDone
	})

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+sub.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE finished job: status %d want 409", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if eb.Code != "job_finished" || eb.Status != imdpp.JobDone || eb.Error == "" {
		t.Fatalf("error body not typed: %+v", eb)
	}

	// the job itself is untouched: still done, solution still there
	done := pollUntil(t, srv.URL+"/v1/jobs/"+sub.JobID, func(v imdpp.JobView) bool { return true })
	if done.Status != imdpp.JobDone || done.Solution == nil {
		t.Fatalf("conflict mutated the job: %+v", done)
	}
}

// TestDaemonShardedCoordinator boots two worker-mode daemons and a
// coordinator over them, and checks the coordinator's sharded /v1/sigma
// is bit-identical to a plain local daemon's — the shard-smoke contract
// in-process.
func TestDaemonShardedCoordinator(t *testing.T) {
	w1 := httptest.NewServer(newWorkerDaemon(2, nil).handler())
	w2 := httptest.NewServer(newWorkerDaemon(2, nil).handler())
	t.Cleanup(w1.Close)
	t.Cleanup(w2.Close)

	pool := imdpp.NewShardPool([]string{w1.URL, w2.URL}, nil)
	t.Cleanup(pool.Close)
	coord := newDaemon(imdpp.ServiceConfig{
		Workers: 1, QueueDepth: 8, CacheSize: 32,
		Backend: imdpp.ShardBackend(pool),
	}, pool)
	coordSrv := httptest.NewServer(coord.handler())
	t.Cleanup(func() {
		coordSrv.Close()
		coord.svc.Close()
	})
	_, localSrv := newTestDaemon(t)

	body := `{"dataset":"sample","budget":80,"t":3,"mc":64,"seed":5,"seeds":[{"user":0,"item":0,"t":1},{"user":3,"item":1,"t":2}]}`
	var sharded, local imdpp.Estimate
	if code := postJSON(t, coordSrv.URL+"/v1/sigma", body, &sharded); code != http.StatusOK {
		t.Fatalf("sharded sigma: status %d", code)
	}
	if code := postJSON(t, localSrv.URL+"/v1/sigma", body, &local); code != http.StatusOK {
		t.Fatalf("local sigma: status %d", code)
	}
	if sharded.Sigma != local.Sigma || sharded.Pi != local.Pi || sharded.Adoptions != local.Adoptions {
		t.Fatalf("sharded σ differs from local: %+v vs %+v", sharded, local)
	}

	// the coordinator's metrics expose the worker-pool depth
	var m struct {
		Shard *imdpp.ShardPoolStats `json:"shard"`
	}
	if code := getJSON(t, coordSrv.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Shard == nil || m.Shard.Workers != 2 || m.Shard.Healthy != 2 {
		t.Fatalf("shard pool depth not reported: %+v", m.Shard)
	}
}

func TestDaemonQueueFull(t *testing.T) {
	d := newDaemon(imdpp.ServiceConfig{Workers: 1, QueueDepth: 1}, nil)
	srv := httptest.NewServer(d.handler())
	defer func() {
		srv.Close()
		d.svc.Close()
	}()

	// sample counts big enough that the blocker outlives several HTTP
	// round trips; nobody waits for these jobs — Close aborts them
	slow := func(seed int) string {
		return fmt.Sprintf(`{"dataset":"sample","budget":80,"t":3,"mc":4096,"mcsi":512,"candidate_cap":256,"seed":%d}`, seed)
	}
	var first solveResponse
	if code := postJSON(t, srv.URL+"/v1/solve", slow(1), &first); code != http.StatusAccepted {
		t.Fatalf("first: status %d", code)
	}
	pollUntil(t, srv.URL+"/v1/jobs/"+first.JobID, func(v imdpp.JobView) bool {
		return v.Status != imdpp.JobQueued
	})
	if code := postJSON(t, srv.URL+"/v1/solve", slow(2), nil); code != http.StatusAccepted {
		t.Fatalf("second: status %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/solve", slow(3), nil); code != http.StatusTooManyRequests {
		t.Fatalf("third: status %d want 429", code)
	}
}

// TestDaemonSketchBackend covers the optional epsilon/delta fields of
// POST /v1/solve and POST /v1/sigma: unusable (ε, δ) pairs are typed
// 400s; an absent epsilon keeps the exact pre-sketch wire — no
// "backend" key in the response and σ bit-identical to a direct
// in-process evaluation of the same request; a present epsilon is
// echoed with backend "sketch" end to end.
func TestDaemonSketchBackend(t *testing.T) {
	_, srv := newTestDaemon(t)

	bad := []struct{ name, path, body string }{
		{"solve epsilon 0", "/v1/solve", `{"dataset":"sample","budget":80,"t":3,"mc":4,"epsilon":0}`},
		{"solve negative epsilon", "/v1/solve", `{"dataset":"sample","budget":80,"t":3,"mc":4,"epsilon":-0.1}`},
		{"solve delta without epsilon", "/v1/solve", `{"dataset":"sample","budget":80,"t":3,"mc":4,"delta":0.05}`},
		{"solve delta at one", "/v1/solve", `{"dataset":"sample","budget":80,"t":3,"mc":4,"epsilon":0.05,"delta":1}`},
		{"sigma epsilon 0", "/v1/sigma", `{"dataset":"sample","budget":80,"t":3,"mc":4,"epsilon":0,"seeds":[{"user":0,"item":0,"t":1}]}`},
		{"sigma delta 2", "/v1/sigma", `{"dataset":"sample","budget":80,"t":3,"mc":4,"epsilon":0.05,"delta":2,"seeds":[{"user":0,"item":0,"t":1}]}`},
	}
	for _, tc := range bad {
		var errBody map[string]string
		if code := postJSON(t, srv.URL+tc.path, tc.body, &errBody); code != http.StatusBadRequest {
			t.Errorf("%s: status %d want 400 (%v)", tc.name, code, errBody)
		}
	}

	// Absent epsilon: the PR-5 wire, byte for byte. The response must
	// not grow a "backend" key, and σ must bit-match the same request
	// evaluated directly in process.
	legacy := `{"dataset":"sample","budget":80,"t":3,"mc":32,"seed":5,"seeds":[{"user":0,"item":0,"t":1}]}`
	resp, err := http.Post(srv.URL+"/v1/sigma", "application/json", bytes.NewBufferString(legacy))
	if err != nil {
		t.Fatalf("sigma: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sigma: status %d, read err %v", resp.StatusCode, err)
	}
	if bytes.Contains(raw, []byte(`"backend"`)) {
		t.Fatalf("epsilon-absent sigma response grew a backend key: %s", raw)
	}
	var got imdpp.Estimate
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("decode sigma: %v", err)
	}
	ds, err := imdpp.LoadDataset("sample", 1.0)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	p := ds.Clone(80, 3)
	want := imdpp.NewEstimator(p, 32, 5).Run([]imdpp.Seed{{User: 0, Item: 0, T: 1}}, nil, false)
	if got.Sigma != want.Sigma {
		t.Fatalf("epsilon-absent daemon σ %v != direct MC σ %v", got.Sigma, want.Sigma)
	}

	// Present epsilon: sketch answer, labelled as such.
	skSigma := `{"dataset":"sample","budget":80,"t":3,"mc":32,"seed":5,"epsilon":0.05,"delta":0.1,"seeds":[{"user":0,"item":0,"t":1}]}`
	var sig sigmaResponse
	if code := postJSON(t, srv.URL+"/v1/sigma", skSigma, &sig); code != http.StatusOK {
		t.Fatalf("sketch sigma: status %d", code)
	}
	if sig.Backend != "sketch" {
		t.Fatalf("sketch sigma backend %q, want \"sketch\"", sig.Backend)
	}

	skSolve := `{"dataset":"sample","budget":80,"t":3,"mc":4,"mcsi":2,"candidate_cap":16,"seed":1,"epsilon":0.05,"delta":0.1}`
	var sub solveResponse
	if code := postJSON(t, srv.URL+"/v1/solve", skSolve, &sub); code != http.StatusAccepted {
		t.Fatalf("sketch solve: status %d", code)
	}
	if sub.Backend != "sketch" {
		t.Fatalf("solve accept backend %q, want \"sketch\"", sub.Backend)
	}
	view := pollUntil(t, srv.URL+"/v1/jobs/"+sub.JobID, func(v imdpp.JobView) bool {
		return v.Status == imdpp.JobDone || v.Status == imdpp.JobFailed
	})
	if view.Status != imdpp.JobDone {
		t.Fatalf("sketch solve failed: %+v", view)
	}
	if view.Backend != "sketch" {
		t.Fatalf("job view backend %q, want \"sketch\"", view.Backend)
	}

	var m struct {
		Sketch struct {
			Requests uint64 `json:"requests"`
			Builds   uint64 `json:"builds"`
		} `json:"sketch"`
	}
	if code := getJSON(t, srv.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Sketch.Requests < 2 || m.Sketch.Builds < 1 {
		t.Fatalf("sketch counters not moving: %+v", m)
	}
}

// TestDaemonMetricsSchema pins the full /metrics document shape once:
// the exact top-level key set and the nested sketch/grid counter
// objects (satellite of the §10 PR — sketch and grid counters nest
// like the "shard" object instead of spreading flat keys).
func TestDaemonMetricsSchema(t *testing.T) {
	_, srv := newTestDaemon(t)

	// run one solve and two identical sigma evaluations so every
	// counter family has a chance to move (grid hits included); the
	// solve also materialises the default tenant's scheduling row
	sigma := `{"dataset":"sample","budget":80,"t":3,"mc":32,"seed":5,"seeds":[{"user":0,"item":0,"t":1}]}`
	for i := 0; i < 2; i++ {
		if code := postJSON(t, srv.URL+"/v1/sigma", sigma, nil); code != http.StatusOK {
			t.Fatalf("sigma %d: status %d", i, code)
		}
	}
	var sub solveResponse
	if code := postJSON(t, srv.URL+"/v1/solve",
		`{"dataset":"sample","budget":80,"t":3,"mc":4,"mcsi":2,"candidate_cap":8,"seed":5}`, &sub); code != http.StatusAccepted {
		t.Fatalf("solve: status %d", code)
	}
	pollUntil(t, srv.URL+"/v1/jobs/"+sub.JobID, func(v imdpp.JobView) bool {
		return v.Status != imdpp.JobQueued && v.Status != imdpp.JobRunning
	})

	var doc map[string]json.RawMessage
	if code := getJSON(t, srv.URL+"/metrics", &doc); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	want := []string{
		"jobs_submitted", "jobs_completed", "jobs_failed", "jobs_cancelled",
		"cache_hits", "cache_misses", "coalesced", "cache_entries",
		"queue_depth", "running", "samples_simulated", "solve_seconds",
		"samples_per_sec", "sketch", "grid", "latency", "tenants",
		"solve_workers", "datasets_cached", "uptime_seconds",
	}
	for _, k := range want {
		if _, ok := doc[k]; !ok {
			t.Errorf("metrics missing key %q", k)
		}
	}
	for got := range doc {
		found := false
		for _, k := range append(want, "shard") {
			if got == k {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("metrics has unexpected key %q", got)
		}
	}

	var nested struct {
		Sketch map[string]uint64 `json:"sketch"`
		Grid   map[string]any    `json:"grid"`
	}
	if err := json.Unmarshal(mustMarshal(t, doc), &nested); err != nil {
		t.Fatalf("decode nested: %v", err)
	}
	for _, k := range []string{"requests", "builds", "cache_hits"} {
		if _, ok := nested.Sketch[k]; !ok {
			t.Errorf("sketch object missing %q", k)
		}
	}
	for _, k := range []string{"lookups", "hits", "singleflights", "evictions", "bytes", "entries", "samples_saved"} {
		if _, ok := nested.Grid[k]; !ok {
			t.Errorf("grid object missing %q", k)
		}
	}
	if hits, ok := nested.Grid["hits"].(float64); !ok || hits < 1 {
		t.Errorf("identical sigma evaluations produced no grid hits: %v", nested.Grid["hits"])
	}

	// the tenants block carries one scheduling row per tenant seen; the
	// solve above ran under the default tenant (DESIGN.md §12)
	var tn struct {
		Tenants map[string]map[string]any `json:"tenants"`
	}
	if err := json.Unmarshal(mustMarshal(t, doc), &tn); err != nil {
		t.Fatalf("decode tenants: %v", err)
	}
	row, ok := tn.Tenants["default"]
	if !ok {
		t.Fatalf("tenants block missing the default tenant: %v", tn.Tenants)
	}
	for _, k := range []string{"admitted", "completed", "shed_quota", "shed_queue_full",
		"queued", "inflight", "weight", "max_queue", "max_inflight", "queue_wait"} {
		if _, ok := row[k]; !ok {
			t.Errorf("tenants.default missing %q", k)
		}
	}
	if adm, ok := row["admitted"].(float64); !ok || adm < 1 {
		t.Errorf("solve did not move tenants.default.admitted: %v", row["admitted"])
	}

	// the latency block carries one histogram snapshot per stage, each
	// with the full quantile key set (DESIGN.md §11)
	var lat struct {
		Latency map[string]map[string]float64 `json:"latency"`
	}
	if err := json.Unmarshal(mustMarshal(t, doc), &lat); err != nil {
		t.Fatalf("decode latency: %v", err)
	}
	for _, stage := range []string{"queue_wait", "solve_wall", "shard_rpc", "sigma"} {
		h, ok := lat.Latency[stage]
		if !ok {
			t.Errorf("latency block missing stage %q", stage)
			continue
		}
		for _, k := range []string{"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms"} {
			if _, ok := h[k]; !ok {
				t.Errorf("latency.%s missing %q", stage, k)
			}
		}
	}
	if lat.Latency["sigma"]["count"] < 2 {
		t.Errorf("two sigma evaluations observed %v in latency.sigma", lat.Latency["sigma"]["count"])
	}

	// a pool-backed daemon grows the optional "shard" object; pin the
	// failure detector's aggregate and the per-remote entry it carries
	// (DESIGN.md §13), both exactly. Its one worker, a closed listener
	// the pool never probed, is not in rotation, so it is not healthy.
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	pool := imdpp.NewShardPool([]string{closed.URL}, nil)
	t.Cleanup(pool.Close)
	pd := newDaemon(imdpp.ServiceConfig{Workers: 1, QueueDepth: 4, CacheSize: 8}, pool)
	psrv := httptest.NewServer(pd.handler())
	t.Cleanup(func() {
		psrv.Close()
		pd.svc.Close()
	})
	var pdoc struct {
		Shard struct {
			Workers int              `json:"workers"`
			Healthy int              `json:"healthy"`
			Fleet   map[string]any   `json:"fleet"`
			Remotes []map[string]any `json:"remotes"`
		} `json:"shard"`
	}
	if code := getJSON(t, psrv.URL+"/metrics", &pdoc); code != http.StatusOK {
		t.Fatalf("pool metrics: status %d", code)
	}
	if pdoc.Shard.Workers != 1 || pdoc.Shard.Healthy != 0 {
		t.Fatalf("never-probed pool: shard.workers %d shard.healthy %d, want 1 and 0", pdoc.Shard.Workers, pdoc.Shard.Healthy)
	}
	requireKeys(t, "shard.fleet", pdoc.Shard.Fleet, []string{"suspect", "dead", "rejoin_count"}, nil)
	if len(pdoc.Shard.Remotes) != 1 {
		t.Fatalf("shard.remotes: %v, want the one listed worker", pdoc.Shard.Remotes)
	}
	requireKeys(t, "shard.remotes[0]", pdoc.Shard.Remotes[0],
		[]string{"url", "state", "healthy", "shards", "failures", "problems"}, []string{"last_err"})
}

// requireKeys fails unless obj has every key in want and no key outside
// want and optional.
func requireKeys(t *testing.T, what string, obj map[string]any, want, optional []string) {
	t.Helper()
	for _, k := range want {
		if _, ok := obj[k]; !ok {
			t.Errorf("%s missing %q", what, k)
		}
	}
	for k := range obj {
		if !slices.Contains(want, k) && !slices.Contains(optional, k) {
			t.Errorf("%s has unexpected key %q", what, k)
		}
	}
}

// TestDaemonTracingEndToEnd pins the daemon-level observability
// surface: with a Tracer configured, a finished job reports its
// trace_id and per-phase timings, and the -debug-addr mux serves the
// recorded trace at GET /debug/traces.
func TestDaemonTracingEndToEnd(t *testing.T) {
	tracer := imdpp.NewTracer()
	d := newDaemon(imdpp.ServiceConfig{
		Workers: 1, QueueDepth: 8, CacheSize: 32, Tracer: tracer,
	}, nil)
	srv := httptest.NewServer(d.handler())
	debug := httptest.NewServer(debugMux(tracer))
	t.Cleanup(func() {
		srv.Close()
		debug.Close()
		d.svc.Close()
	})

	var sub solveResponse
	if code := postJSON(t, srv.URL+"/v1/solve", quickSolve, &sub); code != http.StatusAccepted {
		t.Fatalf("solve: status %d", code)
	}
	done := pollUntil(t, srv.URL+"/v1/jobs/"+sub.JobID, func(v imdpp.JobView) bool {
		return v.Status == imdpp.JobDone
	})
	if done.TraceID == "" {
		t.Fatalf("finished job has no trace_id: %+v", done)
	}
	if len(done.Phases) == 0 {
		t.Fatalf("finished job has no phase timings: %+v", done)
	}
	for _, ph := range done.Phases {
		if ph.Phase == "" || ph.Seconds < 0 {
			t.Fatalf("malformed phase timing: %+v", ph)
		}
	}

	var traces struct {
		Traces []imdpp.Trace `json:"traces"`
	}
	if code := getJSON(t, debug.URL+"/debug/traces", &traces); code != http.StatusOK {
		t.Fatalf("debug/traces: status %d", code)
	}
	found := false
	for _, tr := range traces.Traces {
		if tr.TraceID.String() != done.TraceID {
			continue
		}
		found = true
		names := make(map[string]int)
		for _, s := range tr.Spans {
			names[s.Name]++
		}
		if names["job"] == 0 || names["queue_wait"] == 0 {
			t.Fatalf("trace %s missing job/queue_wait spans: %v", done.TraceID, names)
		}
		phased := 0
		for n, c := range names {
			if len(n) > 6 && n[:6] == "phase:" {
				phased += c
			}
		}
		if phased == 0 {
			t.Fatalf("trace %s has no phase spans: %v", done.TraceID, names)
		}
	}
	if !found {
		t.Fatalf("job trace %s not in /debug/traces", done.TraceID)
	}

	// pprof rides the same debug mux
	if code := getJSON(t, debug.URL+"/debug/pprof/cmdline", nil); code != http.StatusOK {
		t.Fatalf("debug/pprof/cmdline: status %d", code)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResolveQuotaSpec pins the @file indirection SIGHUP reload rides
// on: literal specs pass through, @path reads the file, a missing
// file is an error rather than a silent empty quota table.
func TestResolveQuotaSpec(t *testing.T) {
	if got, err := resolveQuotaSpec("pro:4:8"); err != nil || got != "pro:4:8" {
		t.Fatalf("literal spec: got %q, %v", got, err)
	}
	f := filepath.Join(t.TempDir(), "quotas")
	if err := os.WriteFile(f, []byte("pro:4:8,default:1:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := resolveQuotaSpec("@" + f); err != nil || got != "pro:4:8,default:1:2" {
		t.Fatalf("@file spec: got %q, %v", got, err)
	}
	if _, err := resolveQuotaSpec("@" + f + ".missing"); err == nil {
		t.Fatalf("missing quota file silently accepted")
	}
}

// TestParseConfig pins the flag-combination rules the daemon refuses
// at startup, and that -shard-workers entries are normalized with the
// pool's own rules.
func TestParseConfig(t *testing.T) {
	bad := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"worker with static list", []string{"-worker", "-shard-workers", "http://a:1"}, "mutually exclusive"},
		{"worker with grid cache", []string{"-worker", "-grid-cache-mb", "16"}, "-grid-cache-mb are mutually exclusive"},
		{"no grid spill", []string{"-grid-cache-dir", "grids"}, "flag provided but not defined: -grid-cache-dir"},
		{"no sketch spill", []string{"-sketch-dir", "sketches"}, "flag provided but not defined: -sketch-dir"},
		{"worker with grid cache off", []string{"-worker", "-grid-cache-mb", "0"}, "-grid-cache-mb are mutually exclusive"},
		{"malformed list entry", []string{"-shard-workers", "http://a:1,127.0.0.1:9"}, "-shard-workers"},
		{"schemeless list entry", []string{"-shard-workers", "localhost:9"}, "bad worker url"},
		{"unknown log level", []string{"-log-level", "loud"}, "log-level"},
		{"zero heartbeat", []string{"-sse-heartbeat", "0s"}, "-sse-heartbeat 0s: want > 0"},
		{"negative heartbeat", []string{"-sse-heartbeat", "-1s"}, "-sse-heartbeat -1s: want > 0"},
	}
	for _, c := range bad {
		if _, err := parseConfig(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: parseConfig(%q) = %v, want an error mentioning %q", c.name, c.args, err, c.want)
		}
	}

	c, err := parseConfig([]string{"-shard-workers", " http://a:1/, ,http://b:2", "-log-level", "debug"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.shardWorkers) != 2 || c.shardWorkers[0] != "http://a:1" || c.shardWorkers[1] != "http://b:2" {
		t.Fatalf("shard workers %q", c.shardWorkers)
	}
	if c.logLevel != slog.LevelDebug || c.addr != "127.0.0.1:8080" {
		t.Fatalf("parsed config %+v", c)
	}
	if c, err = parseConfig([]string{"-worker"}); err != nil || !c.worker {
		t.Fatalf("worker config %+v, %v", c, err)
	}
}

// TestServeWaitsForInFlight pins the shutdown path: once ctx is done,
// serve closes the listener but returns only after a request already
// in flight has completed and its response reached the client.
func TestServeWaitsForInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		finished.Store(true)
		fmt.Fprint(w, "done")
	})}
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan error, 1)
	go func() { returned <- serve(ctx, srv, ln, time.Minute) }()

	reply := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			reply <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		reply <- string(b)
	}()
	<-started
	cancel()
	select {
	case err := <-returned:
		t.Fatalf("serve returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-returned; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if !finished.Load() {
		t.Fatal("serve returned before the in-flight handler completed")
	}
	if got := <-reply; got != "done" {
		t.Fatalf("in-flight request got %q, want the full response", got)
	}
}

// TestWorkerShutdownWritesInFlightReplies pins a worker's shutdown:
// its shard streams are hijacked connections, which
// http.Server.Shutdown does not wait for, so the worker's own shutdown
// hook writes the reply of the estimate in flight, closes the stream
// and ends within the grace. The batch completes on the worker,
// bit-identical to a local run, with no local fallback.
func TestWorkerShutdownWritesInFlightReplies(t *testing.T) {
	const grace = 30 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, ended := newWorkerDaemon(1, nil).server(grace)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan error, 1)
	go func() { returned <- serve(ctx, srv, ln, grace) }()

	// an estimate of a few hundred milliseconds on one engine goroutine
	ds, err := imdpp.LoadDataset("amazon", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Clone(800, 4)
	groups := make([][]imdpp.Seed, 8)
	for g := range groups {
		groups[g] = []imdpp.Seed{{User: g + 1, Item: 0, T: 1}, {User: 3*g + 7, Item: 1, T: 1}, {User: 5*g + 11, Item: 2, T: 2}}
	}
	const m, seed = 1 << 14, 9
	want := imdpp.NewEstimator(p, m, seed).RunBatch(groups, nil)

	pool := imdpp.NewShardPool([]string{"http://" + ln.Addr().String()}, nil)
	defer pool.Close()
	got := make(chan []imdpp.Estimate, 1)
	go func() { got <- imdpp.NewShardEstimator(pool, p, m, seed, 1).RunBatch(groups, nil) }()
	// the estimate follows the upload's ack on the stream
	deadline := time.Now().Add(10 * time.Second)
	for st := pool.Snapshot(); len(st.Remotes) == 0 || st.Remotes[0].Problems == 0; st = pool.Snapshot() {
		if time.Now().After(deadline) {
			t.Fatal("the problem upload never reached the worker")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case <-got:
		t.Fatal("the batch finished before the shutdown; the test proves nothing")
	default:
	}
	start := time.Now()
	cancel()
	res := <-got
	t.Logf("the batch ended %v into the shutdown", time.Since(start))
	for g := range want {
		if res[g].Sigma != want[g].Sigma || res[g].Adoptions != want[g].Adoptions {
			t.Fatalf("group %d after the shutdown: %+v, want %+v", g, res[g], want[g])
		}
	}
	if err := <-returned; err != nil {
		t.Fatalf("serve: %v", err)
	}
	select {
	case <-ended:
	case <-time.After(grace):
		t.Fatal("the worker's streams outlived the grace")
	}
	if waited := time.Since(start); waited > grace {
		t.Fatalf("shutdown took %v, past the %v grace", waited, grace)
	}
	if st := pool.Snapshot(); st.LocalFallbacks != 0 || st.Remotes[0].Shards != 1 {
		t.Fatalf("the in-flight reply was lost: %+v", st)
	}
	// the worker closed the stream the pool keeps idle, and the closed
	// listener takes no new one: the next batch runs locally
	imdpp.NewShardEstimator(pool, p, 64, seed, 1).RunBatch(groups, nil)
	if st := pool.Snapshot(); st.LocalFallbacks != 1 || st.Remotes[0].Shards != 1 {
		t.Fatalf("a stream outlived the worker's shutdown: %+v", st)
	}
}

// TestLoadQuotas: startup and SIGHUP reload share one resolve-and-parse
// path, refusing a bad spec either way.
func TestLoadQuotas(t *testing.T) {
	f := filepath.Join(t.TempDir(), "quotas")
	if err := os.WriteFile(f, []byte("pro:4:8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"pro:4:8", "@" + f} {
		if quotas, _, err := loadQuotas(spec); err != nil || len(quotas) != 1 {
			t.Fatalf("loadQuotas(%q) = %v, %v", spec, quotas, err)
		}
	}
	for _, spec := range []string{"pro:x", "@" + f + ".missing"} {
		if _, _, err := loadQuotas(spec); err == nil {
			t.Fatalf("loadQuotas(%q) accepted a bad spec", spec)
		}
	}
}
