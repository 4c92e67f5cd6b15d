package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"imdpp/internal/diffusion"
)

// checkNoGoroutineLeak polls until the goroutine count returns to
// (about) the baseline — the goleak-style guard shared with the
// service tests, here watching probe goroutines, registrar loops and
// speculative-dispatch losers.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the scheduler
		n := runtime.NumGoroutine()
		if n <= baseline+2 { // tolerate runtime/test-framework jitter
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// leakCheck registers the goroutine-leak assertion *first*, so the
// LIFO cleanup order runs it *last* — after the pool, servers and
// registrars the test registers afterwards have shut down.
func leakCheck(t *testing.T) {
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() { checkNoGoroutineLeak(t, baseline) })
}

func TestBackoffJitterBounds(t *testing.T) {
	p := NewPool(nil, nil)
	defer p.Close()
	p.probeBase = 100 * time.Millisecond
	p.probeCap = 800 * time.Millisecond
	for fails := 0; fails < 8; fails++ {
		want := p.probeBase << min(fails, 10)
		if want > p.probeCap {
			want = p.probeCap
		}
		for i := 0; i < 50; i++ {
			d := p.backoffFor(fails)
			if d < want/2 || d > want {
				t.Fatalf("backoffFor(%d) = %v outside [%v, %v]", fails, d, want/2, want)
			}
		}
	}
	// and the cap really caps: far past the doubling range it stays put
	if d := p.backoffFor(40); d > p.probeCap {
		t.Fatalf("backoffFor(40) = %v exceeds cap %v", d, p.probeCap)
	}
}

// TestRegisterNegotiatesCaps pins the once-at-the-door compatibility
// check: a worker advertising this build's frame version is in
// rotation and served bit-identically from its first RPC, while one
// advertising any other version is refused with a typed 409
// incompatible_worker — and its URL leaves the registry — instead of
// degrading request by request.
func TestRegisterNegotiatesCaps(t *testing.T) {
	leakCheck(t)
	pool, _, _ := newFleet(t, 0) // empty static list

	w := NewWorker(WorkerConfig{Workers: 2})
	mux := http.NewServeMux()
	w.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	if err := pool.Register(srv.URL, DefaultWorkerCaps()); err != nil {
		t.Fatal(err)
	}
	if rs := pool.healthyRemotes(); len(rs) != 1 {
		t.Fatalf("registered worker not in rotation: %d remotes", len(rs))
	}

	// the first RPC already carries a real workload bit-identically
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 9, 33
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)
	est := NewEstimator(pool, p, m, seed, 2)
	requireSameEstimates(t, "registered worker", want, est.RunBatch(groups, nil))

	// a rejoin (same URL, fresh process) forgets the acknowledged uploads
	if err := pool.Register(srv.URL, DefaultWorkerCaps()); err != nil {
		t.Fatal(err)
	}
	if pool.healthyRemotes()[0].knowsProblem(p.ContentDigest()) {
		t.Fatal("re-registration kept the stale upload acknowledgement")
	}
	requireSameEstimates(t, "re-registration", want, est.RunBatch(groups, nil))
	if st := pool.Snapshot(); st.Fleet.Registered != 1 || st.LocalFallbacks != 0 {
		t.Fatalf("fleet stats after registration: %+v", st.Fleet)
	}

	// any other frame version is refused, typed — including version 1
	// (DEFLATE-compressed frames) and the zero caps of a build that
	// predates the version field
	for _, caps := range []WorkerCaps{{CodecVersion: 1}, {CodecVersion: frameVersion + 1}, {}} {
		err := pool.Register(srv.URL, caps)
		var se *shardError
		if !errors.As(err, &se) || se.status != http.StatusConflict || se.code != CodeIncompatibleWorker {
			t.Fatalf("Register(%+v) = %v, want 409 %q", caps, err, CodeIncompatibleWorker)
		}
		// the process now at that URL cannot decode our frames, so the
		// earlier registration leaves the fleet with the refusal
		if n := pool.Size(); n != 0 {
			t.Fatalf("refused worker still in the registry (%d remotes)", n)
		}
	}
	// and the fleet degrades to local compute, still bit-identical
	requireSameEstimates(t, "after refusal", want, est.RunBatch(groups, nil))
}

func TestRegisterValidatesAndBounds(t *testing.T) {
	pool := NewPool(nil, nil)
	defer pool.Close()
	caps := DefaultWorkerCaps()
	for _, bad := range []string{"", "not-a-url", "ftp://x", "http://"} {
		if err := pool.Register(bad, caps); err == nil {
			t.Fatalf("Register(%q) accepted a bad URL", bad)
		}
	}
	// the registry is bounded: one past maxRemotes distinct URLs fails
	for i := 0; i < maxRemotes; i++ {
		if err := pool.Register(fmt.Sprintf("http://10.0.0.1:%d", 1000+i), caps); err != nil {
			t.Fatalf("registration %d rejected below the bound: %v", i, err)
		}
	}
	if err := pool.Register("http://10.0.0.1:9", caps); err == nil {
		t.Fatal("registration past the bound accepted")
	}
	// re-registering an existing URL still works at the bound
	if err := pool.Register("http://10.0.0.1:1000", caps); err != nil {
		t.Fatalf("re-registration at the bound rejected: %v", err)
	}
}

// TestHeartbeatTimeoutSuspectsWorker starves a registered worker of
// heartbeats and expects the failure detector to suspect it, then a
// heartbeat to bring it straight back (and count a rejoin).
func TestHeartbeatTimeoutSuspectsWorker(t *testing.T) {
	leakCheck(t)
	pool, _, _ := newFleet(t, 0)
	pool.hbTimeout = 30 * time.Millisecond
	pool.probeBase = 5 * time.Millisecond
	pool.probeCap = 20 * time.Millisecond

	// register a URL nothing listens on: probes fail too, so the worker
	// must stay out of rotation until a heartbeat arrives
	const u = "http://127.0.0.1:1" // reserved port, connection refused
	if err := pool.Register(u, DefaultWorkerCaps()); err != nil {
		t.Fatal(err)
	}
	pool.StartHealthLoop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := pool.Snapshot()
		if st.Fleet.Suspect+st.Fleet.Dead == 1 && st.Healthy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("silent worker never suspected: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !pool.Heartbeat(u) {
		t.Fatal("heartbeat for a registered worker rejected")
	}
	st := pool.Snapshot()
	if st.Healthy != 1 {
		t.Fatalf("heartbeat did not revive the worker: %+v", st)
	}
	if st.Fleet.RejoinCount == 0 || st.Fleet.Heartbeats == 0 {
		t.Fatalf("rejoin/heartbeat counters flat: %+v", st.Fleet)
	}
}

// TestRegistryHTTPRoundTrip drives the lifecycle protocol over real
// HTTP: register, heartbeat, deregister, and the unknown_worker answer
// that tells a worker its coordinator restarted.
func TestRegistryHTTPRoundTrip(t *testing.T) {
	leakCheck(t)
	pool := NewPool(nil, nil)
	t.Cleanup(pool.Close)
	mux := http.NewServeMux()
	pool.MountRegistry(mux)
	coord := httptest.NewServer(mux)
	t.Cleanup(coord.Close)

	post := func(path string, v any) (*http.Response, []byte) {
		t.Helper()
		body, _ := json.Marshal(v)
		resp, err := http.Post(coord.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// heartbeat before registration: typed unknown_worker
	resp, body := post(PathHeartbeat, HeartbeatRequest{URL: "http://10.9.9.9:1234"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-registration heartbeat: status %d want 404", resp.StatusCode)
	}
	var eb ErrorBody
	if json.Unmarshal(body, &eb); eb.Code != CodeUnknownWorker {
		t.Fatalf("pre-registration heartbeat code %q want %q", eb.Code, CodeUnknownWorker)
	}

	resp, body = post(PathRegister, RegisterRequest{URL: "http://10.9.9.9:1234", Caps: DefaultWorkerCaps()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d body %s", resp.StatusCode, body)
	}
	var reg RegisterResponse
	if err := json.Unmarshal(body, &reg); err != nil || !reg.OK || reg.HeartbeatMillis <= 0 {
		t.Fatalf("register response %s err %v", body, err)
	}

	if resp, _ = post(PathHeartbeat, HeartbeatRequest{URL: "http://10.9.9.9:1234"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: status %d", resp.StatusCode)
	}
	if resp, _ = post(PathDeregister, DeregisterRequest{URL: "http://10.9.9.9:1234"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: status %d", resp.StatusCode)
	}
	if pool.Size() != 0 {
		t.Fatalf("deregister left %d remotes", pool.Size())
	}
	// incompatible frame version: the typed 409 survives the handler
	resp, body = post(PathRegister, RegisterRequest{URL: "http://10.9.9.9:1234", Caps: WorkerCaps{CodecVersion: 0}})
	eb = ErrorBody{}
	if json.Unmarshal(body, &eb); resp.StatusCode != http.StatusConflict || eb.Code != CodeIncompatibleWorker {
		t.Fatalf("incompatible register: status %d code %q, want 409 %q", resp.StatusCode, eb.Code, CodeIncompatibleWorker)
	}
	if pool.Size() != 0 {
		t.Fatalf("refused registration left %d remotes", pool.Size())
	}
	// malformed body: typed bad_request
	r2, err := http.Post(coord.URL+PathRegister, "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated register body: status %d want 400", r2.StatusCode)
	}
}

// TestRegistrarLoop runs the worker-side registrar against a live
// coordinator: it registers, heartbeats at the dictated cadence, and
// re-registers by itself after the coordinator forgets it (restart).
func TestRegistrarLoop(t *testing.T) {
	leakCheck(t)
	pool := NewPool(nil, nil)
	t.Cleanup(pool.Close)
	pool.SetHeartbeat(20 * time.Millisecond)
	mux := http.NewServeMux()
	pool.MountRegistry(mux)
	coord := httptest.NewServer(mux)
	t.Cleanup(coord.Close)

	reg, err := NewRegistrar(RegistrarConfig{Coordinator: coord.URL, SelfURL: "http://127.0.0.1:19999"})
	if err != nil {
		t.Fatal(err)
	}
	reg.Start()
	t.Cleanup(reg.Stop)

	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("registration", func() bool { return pool.Snapshot().Fleet.Registered == 1 })
	waitFor("heartbeats", func() bool { return reg.Beats() >= 2 })

	// coordinator "restart": forget the fleet; the next heartbeat's
	// unknown_worker answer must drive re-registration
	pool.Deregister("http://127.0.0.1:19999")
	waitFor("re-registration", func() bool { return pool.Snapshot().Fleet.Registered == 1 })

	// graceful goodbye
	if err := reg.Deregister(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg.Stop()
	if got := pool.Snapshot().Fleet.Registered; got != 0 {
		t.Fatalf("deregister left %d registered", got)
	}
}

// TestRegistrarStopsWhenRefused pins the worker side of the
// compatibility check: a 409 incompatible_worker refusal is terminal —
// one register attempt, an error-level log, Registered false, and a
// loop that exits by itself instead of retrying on backoff.
func TestRegistrarStopsWhenRefused(t *testing.T) {
	leakCheck(t)
	pool := NewPool(nil, nil)
	t.Cleanup(pool.Close)
	var registers atomic.Int32
	mux := http.NewServeMux()
	pool.MountRegistry(mux)
	coord := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathRegister {
			registers.Add(1)
		}
		mux.ServeHTTP(rw, r)
	}))
	t.Cleanup(coord.Close)

	var logs bytes.Buffer
	reg, err := NewRegistrar(RegistrarConfig{
		Coordinator: coord.URL,
		SelfURL:     "http://127.0.0.1:19998",
		Caps:        WorkerCaps{CodecVersion: frameVersion + 1},
		Logger:      slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.Start()
	t.Cleanup(reg.Stop) // still safe once the loop has exited
	select {
	case <-reg.done:
	case <-time.After(5 * time.Second):
		t.Fatal("registrar kept retrying after a terminal refusal")
	}
	if reg.Registered() {
		t.Fatal("refused registrar reports Registered")
	}
	if n := registers.Load(); n != 1 {
		t.Fatalf("refused registrar sent %d register RPCs, want 1", n)
	}
	if pool.Size() != 0 {
		t.Fatalf("refused worker joined the registry (%d remotes)", pool.Size())
	}
	if !strings.Contains(logs.String(), "level=ERROR") || !strings.Contains(logs.String(), "refused") {
		t.Fatalf("refusal not logged at error level:\n%s", logs.String())
	}
}

// TestWorkerDrain pins the drain contract: in-flight requests finish,
// new ones get the typed draining rejection, and the drained channel
// closes exactly when the last in-flight request ends.
func TestWorkerDrain(t *testing.T) {
	leakCheck(t)
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 6, 44
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)

	pool, workers, servers := newFleet(t, 1)
	est := NewEstimator(pool, p, m, seed, 2)
	requireSameEstimates(t, "pre-drain", want, est.RunBatch(groups, nil))

	// idle worker: drain completes immediately
	drained := workers[0].BeginDrain()
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("idle worker's drain never completed")
	}
	if !workers[0].Stats().Draining {
		t.Fatal("WorkerStats does not report draining")
	}

	// new dispatches are rejected with the typed code...
	frame, err := (&EstimateRequest{Problem: p.ContentDigest().String(), Lo: 0, Hi: 1, Groups: [][]diffusion.Seed{{}}}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if status, eb := postShard(t, servers[0].URL+PathEstimate, ContentTypeBinary, frame); status != http.StatusServiceUnavailable || eb.Code != CodeDraining {
		t.Fatalf("dispatch to draining worker: status %d code %q, want 503 %q", status, eb.Code, CodeDraining)
	}

	// ...and the coordinator absorbs that as drain, not failure: the
	// solve falls back without surfacing an error or a strike
	requireSameEstimates(t, "during drain", want, est.RunBatch(groups, nil))
	st := pool.Snapshot()
	if st.Fleet.Draining != 1 {
		t.Fatalf("coordinator did not mark the remote draining: %+v", st.Fleet)
	}
	if st.Remotes[0].Failures != 0 {
		t.Fatalf("drain counted as a failure: %+v", st.Remotes[0])
	}
}

// TestSeedListUsesRegistryInsert pins NewPool's seed list to the insert
// path Register uses: one worker spelled three ways is one entry that
// one Deregister removes, malformed URLs never enter (ParseWorkerList
// refuses them with Register's error), the list is bounded by
// maxRemotes, and a seeded worker that registers stays one entry.
func TestSeedListUsesRegistryInsert(t *testing.T) {
	const u = "http://127.0.0.1:7001"
	bad := []string{"127.0.0.1:9", "localhost:9"}
	pool := NewPool(append([]string{u, u + "/", " " + u, ""}, bad...), nil)
	defer pool.Close()
	if n := pool.Size(); n != 1 {
		t.Fatalf("one worker spelled three ways plus malformed URLs: %d remotes, want 1", n)
	}
	pool.Deregister(u)
	if n := pool.Size(); n != 0 {
		t.Fatalf("Deregister left %d remotes", n)
	}

	caps := DefaultWorkerCaps()
	for _, b := range bad {
		regErr := pool.Register(b, caps)
		_, err := ParseWorkerList(u + "," + b)
		if err == nil || regErr == nil || err.Error() != regErr.Error() {
			t.Fatalf("%q: ParseWorkerList error %v, Register error %v; want the same refusal", b, err, regErr)
		}
	}
	if urls, err := ParseWorkerList(" " + u + "/, ," + u); err != nil || len(urls) != 2 || urls[0] != u || urls[1] != u {
		t.Fatalf("ParseWorkerList = %q, %v", urls, err)
	}
	if urls, err := ParseWorkerList(""); err != nil || len(urls) != 0 {
		t.Fatalf("ParseWorkerList(\"\") = %q, %v", urls, err)
	}

	many := make([]string, maxRemotes+5)
	for i := range many {
		many[i] = fmt.Sprintf("http://10.0.0.2:%d", 1000+i)
	}
	if n := NewPool(many, nil).Size(); n != maxRemotes {
		t.Fatalf("seed list of %d: %d remotes, want the %d bound", len(many), n, maxRemotes)
	}

	seeded := NewPool([]string{u}, nil)
	defer seeded.Close()
	if seeded.Heartbeat(u) {
		t.Fatal("a seeded entry whose caps were never checked accepted a heartbeat")
	}
	if err := seeded.Register(u+"/", caps); err != nil {
		t.Fatal(err)
	}
	st := seeded.Snapshot()
	if st.Workers != 1 || st.Fleet.Registered != 1 || !st.Remotes[0].Registered || st.Fleet.RejoinCount != 0 {
		t.Fatalf("seeded worker after registering: %+v", st)
	}
	if !seeded.Heartbeat(u) {
		t.Fatal("heartbeat refused after registration")
	}
}

// healthzCounter serves a worker /healthz that answers 200 and counts
// its hits: the probes the failure detector sends.
func healthzCounter(t *testing.T) (string, *atomic.Int32) {
	t.Helper()
	hits := new(atomic.Int32)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			hits.Add(1)
		}
		writeShardJSON(rw, http.StatusOK, map[string]bool{"ok": true})
	}))
	t.Cleanup(srv.Close)
	return srv.URL, hits
}

// requireAliveUntil polls until enough probes arrived, failing the
// moment the worker leaves rotation, and checks it never rejoined.
func requireAliveUntil(t *testing.T, pool *Pool, hits *atomic.Int32, probes int32) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d probes", probes), func() bool {
		if st := pool.Snapshot(); st.Healthy != 1 {
			t.Fatalf("worker left rotation with %d probes answered: %+v", hits.Load(), st)
		}
		return hits.Load() >= probes
	})
	if st := pool.Snapshot(); st.Fleet.RejoinCount != 0 {
		t.Fatalf("rejoin_count %d, want 0: the worker never left", st.Fleet.RejoinCount)
	}
}

// TestLivenessBeatingWorkerIsNotProbed: a registered worker that keeps
// beating is heard from, so over 10 heartbeat intervals the detector
// sends it no probe at all.
func TestLivenessBeatingWorkerIsNotProbed(t *testing.T) {
	leakCheck(t)
	url, hits := healthzCounter(t)
	pool := NewPool(nil, nil)
	t.Cleanup(pool.Close)
	pool.SetHeartbeat(100 * time.Millisecond)
	if err := pool.Register(url, DefaultWorkerCaps()); err != nil {
		t.Fatal(err)
	}
	pool.StartHealthLoop()
	// four beats per dictated interval: ~275ms of slack before a late
	// beat could look like silence
	for i := 0; i < 40; i++ {
		time.Sleep(25 * time.Millisecond)
		if !pool.Heartbeat(url) {
			t.Fatal("heartbeat refused")
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("a beating worker was probed %d times", n)
	}
	if st := pool.Snapshot(); st.Healthy != 1 || st.Fleet.RejoinCount != 0 {
		t.Fatalf("beating worker: %+v", st)
	}
}

// TestLivenessSeededWorkerAnsweringProbesStaysAlive: a seeded worker
// cannot beat, so it is probed once per heartbeat timeout — never
// more often — and, answering, stays in rotation without a rejoin.
func TestLivenessSeededWorkerAnsweringProbesStaysAlive(t *testing.T) {
	leakCheck(t)
	url, hits := healthzCounter(t)
	pool := NewPool([]string{url}, nil)
	t.Cleanup(pool.Close)
	pool.SetHeartbeat(10 * time.Millisecond)
	start := time.Now()
	pool.StartHealthLoop()
	requireAliveUntil(t, pool, hits, 10)
	// each probe needs a full timeout of silence after the last one
	if n, most := hits.Load(), int32(time.Since(start)/pool.hbTimeout)+1; n > most {
		t.Fatalf("%d probes in %v: more than one per %v timeout", n, time.Since(start), pool.hbTimeout)
	}
}

// TestLivenessSilentRegisteredWorkerAnsweringProbesStaysAlive: a
// registered worker whose beats stop but whose /healthz answers is
// probed like any silent entry and stays in rotation.
func TestLivenessSilentRegisteredWorkerAnsweringProbesStaysAlive(t *testing.T) {
	leakCheck(t)
	url, hits := healthzCounter(t)
	pool := NewPool(nil, nil)
	t.Cleanup(pool.Close)
	pool.SetHeartbeat(10 * time.Millisecond)
	if err := pool.Register(url, DefaultWorkerCaps()); err != nil {
		t.Fatal(err)
	}
	pool.StartHealthLoop()
	requireAliveUntil(t, pool, hits, 5)
}

// TestLivenessUnreachableRegisteredWorkerLeavesRotation: a registered
// worker that goes silent and refuses connections leaves rotation
// after one heartbeat timeout plus one (failed) probe — not before the
// timeout, and without waiting out further backoff.
func TestLivenessUnreachableRegisteredWorkerLeavesRotation(t *testing.T) {
	leakCheck(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close() // connections to url are now refused
	pool := NewPool(nil, nil)
	t.Cleanup(pool.Close)
	pool.SetHeartbeat(20 * time.Millisecond)
	start := time.Now()
	if err := pool.Register(url, DefaultWorkerCaps()); err != nil {
		t.Fatal(err)
	}
	pool.StartHealthLoop()
	waitUntil(t, "unreachable worker out of rotation", func() bool { return pool.Snapshot().Healthy == 0 })
	elapsed := time.Since(start)
	// a refused probe fails at once; the slack covers detector ticks and
	// a loaded scheduler
	if elapsed < pool.hbTimeout || elapsed > pool.hbTimeout+time.Second {
		t.Fatalf("left rotation after %v, want within (%v, %v]", elapsed, pool.hbTimeout, pool.hbTimeout+time.Second)
	}
	if rs := pool.Snapshot().Remotes[0]; rs.LastErr == "" || rs.Failures != 0 {
		t.Fatalf("out of rotation by a failed probe, not a dispatch: %+v", rs)
	}
}
