package shard

import (
	"context"
	"fmt"
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
// service tests, here watching probe goroutines and
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
// LIFO cleanup order runs it *last* — after the pool and servers the
// test registers afterwards have shut down.
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

// TestProbeRefusesForeignFrameVersion pins the one compatibility
// check: a worker whose /healthz names another frame version — or
// none, as a build predating the field — fails the probe and stays out
// of rotation with a LastErr naming both versions, and no upload or
// estimate request ever reaches it. That holds with the fleet Checked
// at startup and without: a pool never Checked probes each worker on
// first contact. A real Worker.Mount worker passes the same check.
func TestProbeRefusesForeignFrameVersion(t *testing.T) {
	leakCheck(t)
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 6, 21
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)

	for _, v := range []int{frameVersion - 1, 0} {
		for _, checked := range []bool{true, false} {
			label := fmt.Sprintf("version %d checked=%v", v, checked)
			var rpcs, probes atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/healthz" {
					probes.Add(1)
				} else {
					rpcs.Add(1)
				}
				body := map[string]any{"ok": true}
				if v != 0 {
					body["codec_version"] = v
				}
				writeShardJSON(rw, http.StatusOK, body)
			}))
			t.Cleanup(srv.Close)
			pool := NewPool([]string{srv.URL}, nil)
			t.Cleanup(pool.Close)

			if checked {
				if n := pool.Check(context.Background()); n != 0 {
					t.Fatalf("%s: Check = %d healthy, want 0", label, n)
				}
			}
			// the batch falls back to local compute, still bit-identical
			est := NewEstimator(pool, p, m, seed, 2)
			requireSameEstimates(t, label, want, est.RunBatch(groups, nil))
			requireSameEstimates(t, label+" again", want, est.RunBatch(groups, nil))
			if n := rpcs.Load(); n != 0 {
				t.Fatalf("%s: %d upload/estimate requests reached a refused worker", label, n)
			}
			if n := probes.Load(); n != 1 {
				t.Fatalf("%s: %d probes, want exactly 1", label, n)
			}
			rs := pool.Snapshot().Remotes[0]
			for _, name := range []string{fmt.Sprintf("version %d", v), fmt.Sprintf("speaks %d", frameVersion)} {
				if !strings.Contains(rs.LastErr, name) {
					t.Fatalf("%s: LastErr %q does not name %q", label, rs.LastErr, name)
				}
			}
		}
	}

	pool, _, _ := newFleet(t, 1)
	if n := pool.Check(context.Background()); n != 1 {
		t.Fatalf("a Worker.Mount worker failed the probe: %+v", pool.Snapshot().Remotes)
	}
	requireSameEstimates(t, "compatible", want, NewEstimator(pool, p, m, seed, 2).RunBatch(groups, nil))
}

// TestSeedListUsesRegistryInsert pins NewPool's one way in: one
// worker spelled three ways is one entry, malformed URLs never enter
// (ParseWorkerList refuses them with the normalizer's error), and the
// list is bounded by maxRemotes.
func TestSeedListUsesRegistryInsert(t *testing.T) {
	const u = "http://127.0.0.1:7001"
	bad := []string{"127.0.0.1:9", "localhost:9"}
	pool := NewPool(append([]string{u, u + "/", " " + u, ""}, bad...), nil)
	defer pool.Close()
	if st := pool.Snapshot(); st.Workers != 1 || st.Remotes[0].URL != u {
		t.Fatalf("one worker spelled three ways plus malformed URLs: %+v, want the one entry %s", st.Remotes, u)
	}

	for _, b := range bad {
		_, want := normalizeWorkerURL(b)
		_, err := ParseWorkerList(u + "," + b)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("%q: ParseWorkerList error %v, normalizer error %v; want the same refusal", b, err, want)
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
	big := NewPool(many, nil)
	defer big.Close()
	if n := big.Size(); n != maxRemotes {
		t.Fatalf("seed list of %d: %d remotes, want the %d bound", len(many), n, maxRemotes)
	}
}

// healthzCounter serves a real worker and counts its /healthz hits:
// the probes the failure detector sends.
func healthzCounter(t *testing.T) (string, *atomic.Int32) {
	t.Helper()
	hits := new(atomic.Int32)
	srv := serveWorker(t, NewWorker(WorkerConfig{}), func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				hits.Add(1)
			}
			h.ServeHTTP(rw, r)
		})
	})
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

// TestLivenessSeededWorkerAnsweringProbesStaysAlive: a listed worker
// enters rotation at the health loop's first probe, is then probed once
// per silence timeout — never more often — and, answering, stays in
// rotation without a rejoin.
func TestLivenessSeededWorkerAnsweringProbesStaysAlive(t *testing.T) {
	leakCheck(t)
	url, hits := healthzCounter(t)
	pool := NewPool([]string{url}, nil)
	t.Cleanup(pool.Close)
	pool.silence, pool.probeCap = 30*time.Millisecond, 30*time.Millisecond
	start := time.Now()
	pool.StartHealthLoop()
	waitUntil(t, "first probe", func() bool { return pool.Snapshot().Healthy == 1 })
	requireAliveUntil(t, pool, hits, 10)
	// the first probe is immediate; each later one needs a full timeout
	// of silence after the last one
	if n, most := hits.Load(), int32(time.Since(start)/pool.silence)+1; n > most {
		t.Fatalf("%d probes in %v: more than one per %v timeout", n, time.Since(start), pool.silence)
	}
}

// TestLivenessUnreachableSeededWorkerLeavesRotation: a listed worker
// that refuses connections never enters rotation. The health loop's
// first probe fails at once, without waiting out a silence timeout,
// and the worker reads probing with the probe's error.
func TestLivenessUnreachableSeededWorkerLeavesRotation(t *testing.T) {
	leakCheck(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close() // connections to url are now refused
	pool := NewPool([]string{url}, nil)
	t.Cleanup(pool.Close)
	pool.silence = time.Minute
	pool.StartHealthLoop()
	waitUntil(t, "a failed first probe", func() bool {
		st := pool.Snapshot()
		if st.Healthy != 0 {
			t.Fatalf("an unreachable worker entered rotation: %+v", st)
		}
		return st.Remotes[0].LastErr != ""
	})
	if rs := pool.Snapshot().Remotes[0]; rs.State != "probing" || rs.Failures != 0 {
		t.Fatalf("out of rotation by a failed probe, not a dispatch: %+v", rs)
	}
}

// TestNeverProbedWorkerIsNotHealthy: a pool over a closed listener,
// never Checked and without a health loop, reports no healthy worker
// before its first batch — Snapshot counts what dispatch would use.
// The first batch probes the worker, fails over to local compute and
// stays bit-identical.
func TestNeverProbedWorkerIsNotHealthy(t *testing.T) {
	leakCheck(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()
	pool := NewPool([]string{url}, nil)
	t.Cleanup(pool.Close)
	if st := pool.Snapshot(); st.Workers != 1 || st.Healthy != 0 || st.Remotes[0].Healthy {
		t.Fatalf("never-probed worker reads healthy: %+v", st)
	}

	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 6, 5
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)
	requireSameEstimates(t, "first batch", want, NewEstimator(pool, p, m, seed, 2).RunBatch(groups, nil))
	if st := pool.Snapshot(); st.Healthy != 0 || st.LocalFallbacks != 1 || st.Remotes[0].State != "probing" {
		t.Fatalf("after the first batch: %+v", st)
	}
}

// TestFailureRule drives markFailed, onProbe and dispatchOK through
// failure sequences. After every step it pins rotation, the two
// counts, the derived label (in Snapshot too, whose Healthy counts
// what dispatch uses) and, after a failure, that the next probe waits
// backoffFor(probeFails + strikes).
func TestFailureRule(t *testing.T) {
	const (
		probeOK = iota
		probeFail
		dispatchFail
		dispatchOK
	)
	type step struct {
		op             int
		fails, strikes int
		label          string
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"probe failures back off to dead at the cap", []step{
			{probeFail, 1, 0, "probing"},
			{probeFail, 2, 0, "probing"},
			{probeFail, 3, 0, "probing"},
			{probeFail, 4, 0, "dead"},
			{probeFail, 5, 0, "dead"},
			{probeOK, 0, 0, "alive"},
		}},
		{"a probe success keeps strikes", []step{
			{probeOK, 0, 0, "alive"},
			{dispatchFail, 0, 1, "suspect"},
			{probeOK, 0, 1, "alive"},
			{dispatchFail, 0, 2, "suspect"},
			{dispatchFail, 0, 3, "suspect"}, // a late failure of an earlier dispatch
			{probeOK, 0, 3, "alive"},
			{dispatchFail, 0, 4, "suspect"}, // strikes alone reach the cap
			{probeFail, 1, 4, "dead"},
			{probeFail, 2, 4, "dead"},
		}},
		{"a dispatch success clears strikes", []step{
			{probeOK, 0, 0, "alive"},
			{dispatchFail, 0, 1, "suspect"},
			{probeOK, 0, 1, "alive"},
			{dispatchOK, 0, 0, "alive"},
			{dispatchFail, 0, 1, "suspect"},
		}},
		{"silence probe fails in rotation", []step{
			{probeOK, 0, 0, "alive"},
			{probeFail, 1, 0, "probing"},
			{dispatchFail, 1, 1, "probing"},
			{probeFail, 2, 1, "probing"},
			{probeFail, 3, 1, "dead"},
			{probeOK, 0, 1, "alive"},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pool := NewPool([]string{"http://127.0.0.1:9"}, nil)
			defer pool.Close()
			pool.probeBase, pool.probeCap = time.Second, 16*time.Second // the cap is 4 failures away
			r := pool.remotes[0]
			if st := pool.Snapshot(); st.Healthy != 0 || st.Remotes[0].State != "suspect" {
				t.Fatalf("never probed: %+v", st)
			}
			for i, s := range c.steps {
				before := time.Now()
				switch s.op {
				case probeOK, probeFail:
					var err error
					if s.op == probeFail {
						err = fmt.Errorf("probe %d failed", i)
					}
					r.mu.Lock()
					r.probeDone = make(chan struct{})
					r.mu.Unlock()
					pool.onProbe(r, err)
				case dispatchFail:
					pool.markFailed(r, fmt.Errorf("dispatch %d failed", i))
				case dispatchOK:
					r.dispatchOK()
				}
				after := time.Now()

				r.mu.Lock()
				fails, strikes, next := r.probeFails, r.strikes, r.nextProbe
				r.mu.Unlock()
				if fails != s.fails || strikes != s.strikes {
					t.Fatalf("step %d: probeFails %d strikes %d, want %d %d", i, fails, strikes, s.fails, s.strikes)
				}
				in := s.label == "alive"
				st := pool.Snapshot()
				if rs := st.Remotes[0]; rs.State != s.label || rs.Healthy != in || r.dispatchable() != in {
					t.Fatalf("step %d: %+v dispatchable=%v, want %s", i, rs, r.dispatchable(), s.label)
				}
				if st.Healthy != len(pool.healthyRemotes()) {
					t.Fatalf("step %d: Snapshot counts %d healthy, dispatch %d", i, st.Healthy, len(pool.healthyRemotes()))
				}
				if s.op == probeFail || s.op == dispatchFail {
					span := pool.backoffSpan(s.fails + s.strikes)
					if next.Before(before.Add(span/2)) || next.After(after.Add(span)) {
						t.Fatalf("step %d: next probe in %v, want within [%v, %v]", i, next.Sub(before), span/2, span)
					}
				}
			}
		})
	}
}
