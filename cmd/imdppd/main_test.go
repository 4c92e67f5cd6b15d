package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"imdpp"
)

func newTestDaemon(t *testing.T) (*daemon, *httptest.Server) {
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
	w1 := httptest.NewServer(newWorkerDaemon(2, 16, "", nil).handler())
	w2 := httptest.NewServer(newWorkerDaemon(2, 16, "", nil).handler())
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
	for _, k := range []string{"requests", "builds", "cache_hits", "disk_hits"} {
		if _, ok := nested.Sketch[k]; !ok {
			t.Errorf("sketch object missing %q", k)
		}
	}
	for _, k := range []string{"lookups", "hits", "disk_hits", "singleflights", "evictions", "bytes", "entries", "samples_saved"} {
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
	// fleet-membership aggregate it carries (DESIGN.md §13)
	pool := imdpp.NewShardPool(nil, nil)
	t.Cleanup(pool.Close)
	pd := newDaemon(imdpp.ServiceConfig{Workers: 1, QueueDepth: 4, CacheSize: 8}, pool)
	pd.dynamic = true
	psrv := httptest.NewServer(pd.handler())
	t.Cleanup(func() {
		psrv.Close()
		pd.svc.Close()
	})
	var pdoc struct {
		Shard struct {
			Fleet map[string]any `json:"fleet"`
		} `json:"shard"`
	}
	if code := getJSON(t, psrv.URL+"/metrics", &pdoc); code != http.StatusOK {
		t.Fatalf("pool metrics: status %d", code)
	}
	for _, k := range []string{"registered", "draining", "suspect", "dead",
		"heartbeats", "breaker_open", "rejoin_count"} {
		if _, ok := pdoc.Shard.Fleet[k]; !ok {
			t.Errorf("shard.fleet missing %q", k)
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

// TestDaemonDynamicFleet walks the elastic-fleet path (DESIGN.md §13)
// at the daemon level: a coordinator with -shard-dynamic semantics
// mounts the registration routes, a worker's registrar announces it
// and is alive before any probe or estimate RPC, σ through
// the registered fleet is bit-identical to local, and a draining
// worker reports unhealthy before deregistering.
func TestDaemonDynamicFleet(t *testing.T) {
	wdd := newWorkerDaemon(2, 16, "", nil)
	wsrv := httptest.NewServer(wdd.handler())
	t.Cleanup(wsrv.Close)

	pool := imdpp.NewShardPool(nil, nil)
	t.Cleanup(pool.Close)
	pool.SetHeartbeat(50 * time.Millisecond)
	coord := newDaemon(imdpp.ServiceConfig{
		Workers: 1, QueueDepth: 8, CacheSize: 32,
		Backend: imdpp.ShardBackend(pool),
	}, pool)
	coord.dynamic = true
	coordSrv := httptest.NewServer(coord.handler())
	t.Cleanup(func() {
		coordSrv.Close()
		coord.svc.Close()
	})

	reg, err := imdpp.NewShardRegistrar(imdpp.ShardRegistrarConfig{
		Coordinator: coordSrv.URL,
		SelfURL:     wsrv.URL,
	})
	if err != nil {
		t.Fatalf("registrar: %v", err)
	}
	reg.Start()
	t.Cleanup(reg.Stop)

	fleet := func() imdpp.ShardFleetStats {
		t.Helper()
		var m struct {
			Shard *imdpp.ShardPoolStats `json:"shard"`
		}
		if code := getJSON(t, coordSrv.URL+"/metrics", &m); code != http.StatusOK {
			t.Fatalf("metrics: status %d", code)
		}
		if m.Shard == nil {
			t.Fatalf("metrics has no shard block")
		}
		return m.Shard.Fleet
	}
	deadline := time.Now().Add(10 * time.Second)
	for fleet().Registered < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered: %+v", fleet())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// the compatibility check happened at registration: the remote is
	// alive before any estimate RPC, no per-request probe needed
	var m struct {
		Shard *imdpp.ShardPoolStats `json:"shard"`
	}
	if code := getJSON(t, coordSrv.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if len(m.Shard.Remotes) != 1 {
		t.Fatalf("want 1 remote, got %+v", m.Shard.Remotes)
	}
	r := m.Shard.Remotes[0]
	if !r.Registered || r.State != "alive" {
		t.Fatalf("registered worker not alive: %+v", r)
	}

	// σ through the dynamically-registered fleet is bit-identical
	_, localSrv := newTestDaemon(t)
	body := `{"dataset":"sample","budget":80,"t":3,"mc":64,"seed":5,"seeds":[{"user":0,"item":0,"t":1},{"user":3,"item":1,"t":2}]}`
	var sharded, local imdpp.Estimate
	if code := postJSON(t, coordSrv.URL+"/v1/sigma", body, &sharded); code != http.StatusOK {
		t.Fatalf("sharded sigma: status %d", code)
	}
	if code := postJSON(t, localSrv.URL+"/v1/sigma", body, &local); code != http.StatusOK {
		t.Fatalf("local sigma: status %d", code)
	}
	if sharded.Sigma != local.Sigma || sharded.Pi != local.Pi {
		t.Fatalf("fleet σ differs from local: %+v vs %+v", sharded, local)
	}
	for time.Now().Before(deadline) && fleet().Heartbeats < 2 {
		time.Sleep(10 * time.Millisecond)
	}
	if hb := fleet().Heartbeats; hb < 2 {
		t.Fatalf("worker heartbeats not counted: %d", hb)
	}

	// drain: the worker turns unhealthy (probes must route away) and
	// rejects new shard dispatches with the typed "draining" error
	reg.Stop()
	<-wdd.w.BeginDrain()
	resp, err := http.Get(wsrv.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var hz struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hz.OK || !hz.Draining {
		t.Fatalf("draining worker healthz: status %d body %+v", resp.StatusCode, hz)
	}
	deregCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := reg.Deregister(deregCtx); err != nil {
		t.Fatalf("deregister: %v", err)
	}
	if f := fleet(); f.Registered != 0 {
		t.Fatalf("worker still registered after deregister: %+v", f)
	}
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
// registry's own rules.
func TestParseConfig(t *testing.T) {
	bad := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"worker with static list", []string{"-worker", "-shard-workers", "http://a:1"}, "mutually exclusive"},
		{"dynamic on a worker", []string{"-worker", "-shard-dynamic"}, "coordinator flag"},
		{"register without worker", []string{"-register", "http://coord:1"}, "requires -worker"},
		{"malformed list entry", []string{"-shard-workers", "http://a:1,127.0.0.1:9"}, "-shard-workers"},
		{"schemeless list entry", []string{"-shard-workers", "localhost:9"}, "bad worker url"},
		{"unknown log level", []string{"-log-level", "loud"}, "log-level"},
	}
	for _, c := range bad {
		if _, err := parseConfig(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: parseConfig(%q) = %v, want an error mentioning %q", c.name, c.args, err, c.want)
		}
	}

	c, err := parseConfig([]string{"-shard-workers", " http://a:1/, ,http://b:2", "-shard-dynamic", "-log-level", "debug"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.shardWorkers) != 2 || c.shardWorkers[0] != "http://a:1" || c.shardWorkers[1] != "http://b:2" {
		t.Fatalf("shard workers %q", c.shardWorkers)
	}
	if !c.shardDynamic || c.logLevel != slog.LevelDebug || c.shardHeartbeat != 2*time.Second || c.addr != "127.0.0.1:8080" {
		t.Fatalf("parsed config %+v", c)
	}
	if c, err = parseConfig([]string{"-worker", "-register", "http://coord:1"}); err != nil || !c.worker || c.register != "http://coord:1" {
		t.Fatalf("worker config %+v, %v", c, err)
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
