package shard

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/diffusion"
	"imdpp/internal/fleettest"
)

// Chaos tier (DESIGN.md §13): every scenario injects transport-level
// faults through the fleettest proxy while asserting the solve stays
// bit-identical to a single-process run with zero surfaced errors —
// the §3 churn-invariance contract, exercised end to end.

// newChaosFleet boots n direct workers plus one worker behind a
// fleettest proxy, all in one pool (the proxied worker is the last
// remote). client nil selects the pool default.
func newChaosFleet(t *testing.T, n int, client *http.Client) (*Pool, []*Worker, *fleettest.Proxy) {
	t.Helper()
	urls := make([]string, 0, n+1)
	workers := make([]*Worker, 0, n+1)
	boot := func() (*Worker, *httptest.Server) {
		w := NewWorker(WorkerConfig{Workers: 2})
		return w, serveWorker(t, w, nil)
	}
	for i := 0; i < n; i++ {
		w, srv := boot()
		workers = append(workers, w)
		urls = append(urls, srv.URL)
	}
	w, srv := boot()
	workers = append(workers, w)
	proxy := fleettest.NewProxy(srv.URL)
	front := httptest.NewServer(proxy.Handler())
	t.Cleanup(front.Close)
	// LIFO: release Drop-blocked handlers before front.Close waits on them
	t.Cleanup(proxy.Close)
	urls = append(urls, front.URL)

	pool := NewPool(urls, client)
	t.Cleanup(pool.Close)
	return pool, workers, proxy
}

// waitUntil polls cond with a 10s deadline.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosKillMidSolve hard-kills a worker (connection resets, the
// kill -9 shape) while a full solve is dispatching to it, and expects
// the solve to complete with σ bit-identical to the local run and no
// surfaced error.
func TestChaosKillMidSolve(t *testing.T) {
	leakCheck(t)
	p := sampleProblem(t, 100, 2)
	opt := core.Options{MC: 8, MCSI: 4, CandidateCap: 32, Seed: 7}
	want, err := core.Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}

	pool, _, proxy := newChaosFleet(t, 2, nil)

	// the worker serves the upload and its first dispatches, then dies
	// — a deterministic kill -9 point mid-solve
	proxy.KillAfter(3)
	opt.Backend = Backend(pool)
	got, err := core.Solve(p, opt)
	if err != nil {
		t.Fatalf("solve surfaced the kill: %v", err)
	}
	if math.Float64bits(want.Sigma) != math.Float64bits(got.Sigma) {
		t.Fatalf("kill mid-solve changed σ: %v vs %v", got.Sigma, want.Sigma)
	}
	st := pool.Snapshot()
	if proxy.Faults() == 0 {
		t.Fatal("the kill never bit: no injected faults")
	}
	if st.Redispatches == 0 && st.LocalFallbacks == 0 {
		t.Fatalf("no failover recorded: %+v", st)
	}
	if st.Healthy != 2 {
		t.Fatalf("fleet after kill: %d healthy, want the 2 direct workers", st.Healthy)
	}
}

// TestChaosRejoin kills a worker, lets the failure detector's failed
// probes back it off (suspect → probing → dead at the cap), revives
// it, and expects it back in rotation (rejoin_count) serving
// bit-identical work.
func TestChaosRejoin(t *testing.T) {
	leakCheck(t)
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 10, 3
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)

	pool, _, proxy := newChaosFleet(t, 1, nil)
	pool.probeBase = 5 * time.Millisecond
	pool.probeCap = 50 * time.Millisecond
	pool.StartHealthLoop()
	est := NewEstimator(pool, p, m, seed, 2)

	requireSameEstimates(t, "healthy fleet", want, est.RunBatch(groups, nil))

	proxy.SetMode(fleettest.Reset) // kill -9
	requireSameEstimates(t, "after kill", want, est.RunBatch(groups, nil))
	waitUntil(t, "death verdict", func() bool {
		st := pool.Snapshot()
		return st.Fleet.Dead+st.Fleet.Suspect == 1
	})

	proxy.SetMode(fleettest.Pass) // restart on the same address
	waitUntil(t, "rejoin", func() bool {
		st := pool.Snapshot()
		return st.Healthy == 2 && st.Fleet.RejoinCount >= 1
	})
	requireSameEstimates(t, "after rejoin", want, est.RunBatch(groups, nil))
	if st := pool.Snapshot(); st.LocalFallbacks != 0 {
		t.Fatalf("rejoin scenario fell back locally: %+v", st)
	}
}

// TestChaosFlappingBreaker shapes the flapping worker — health probes
// pass while every dispatch dies. Probe successes re-admit it but never
// clear its strikes, so its re-admission backoff grows to the cap
// instead of feeding it a doomed dispatch every base interval; results
// stay bit-identical throughout, with no local fallback.
func TestChaosFlappingBreaker(t *testing.T) {
	leakCheck(t)
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 10, 13
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)

	pool, _, proxy := newChaosFleet(t, 2, nil)
	pool.probeBase = 5 * time.Millisecond
	pool.probeCap = 40 * time.Millisecond // the cap is 3 strikes away
	pool.StartHealthLoop()
	est := NewEstimator(pool, p, m, seed, 2)

	proxy.PassHealthz(true)
	proxy.SetMode(fleettest.Error500)

	flapper := pool.remotes[2] // the proxied worker
	waitUntil(t, "flapper backoff at the cap", func() bool {
		requireSameEstimates(t, "flapping", want, est.RunBatch(groups, nil))
		flapper.mu.Lock()
		defer flapper.mu.Unlock()
		return pool.backoffSpan(flapper.probeFails+flapper.strikes) >= pool.probeCap
	})
	requireSameEstimates(t, "at the cap", want, est.RunBatch(groups, nil))
	st := pool.Snapshot()
	if st.LocalFallbacks != 0 {
		t.Fatalf("flapping forced a local fallback with 2 good workers: %+v", st)
	}
	if rs := st.Remotes[2]; rs.Failures < 3 || rs.State == "dead" || rs.State == "probing" {
		t.Fatalf("flapper %+v: want at least 3 failed dispatches and no failed probe", rs)
	}
}

// TestChaosFaultTable sweeps the remaining proxy fault modes —
// truncated response frames, spurious 500s, dropped (hung) requests —
// and asserts each converges bit-identically via failover.
func TestChaosFaultTable(t *testing.T) {
	leakCheck(t)
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 8, 29
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)

	modes := []fleettest.Mode{fleettest.Truncate, fleettest.Error500, fleettest.Drop}
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			var client *http.Client
			if mode == fleettest.Drop {
				// a dropped request only resolves by timeout; keep it short
				client = &http.Client{Timeout: 500 * time.Millisecond}
			}
			pool, _, proxy := newChaosFleet(t, 1, client)
			est := NewEstimator(pool, p, m, seed, 2)
			requireSameEstimates(t, "warm "+mode.String(), want, est.RunBatch(groups, nil))
			proxy.SetMode(mode)
			requireSameEstimates(t, "faulted "+mode.String(), want, est.RunBatch(groups, nil))
			if proxy.Faults() == 0 {
				t.Fatalf("%s: fault mode never engaged", mode)
			}
			// the range was rescued by failover, local fallback, or a
			// speculative duplicate outrunning the faulted dispatch — any
			// of the three is a valid §7 convergence path
			st := pool.Snapshot()
			if st.Redispatches == 0 && st.LocalFallbacks == 0 && st.SpeculativeHits == 0 {
				t.Fatalf("%s: no rescue recorded: %+v", mode, st)
			}
			// the proxy's error frame decodes as the worker's typed error
			if rs := st.Remotes[1]; mode == fleettest.Error500 && !strings.Contains(rs.LastErr, "injected fault") {
				t.Fatalf("error500: LastErr %q does not carry the injected error frame", rs.LastErr)
			}
		})
	}
}

// TestChaosDelayTriggersSpeculation injects pure latency (no failure)
// and expects the speculative duplicate to win without blaming the
// slow worker — delay is not death.
func TestChaosDelayTriggersSpeculation(t *testing.T) {
	leakCheck(t)
	p := sampleProblem(t, 120, 3)
	groups := groupsFor(p)
	const m, seed = 8, 17
	want := diffusion.NewEstimator(p, m, seed).RunBatch(groups, nil)

	pool, _, proxy := newChaosFleet(t, 1, nil)
	pool.specMin = 5 * time.Millisecond
	est := NewEstimator(pool, p, m, seed, 2)

	requireSameEstimates(t, "warm", want, est.RunBatch(groups, nil))
	proxy.SetDelay(800 * time.Millisecond)
	proxy.SetMode(fleettest.Delay)
	start := time.Now()
	requireSameEstimates(t, "delayed", want, est.RunBatch(groups, nil))
	if elapsed := time.Since(start); elapsed >= 800*time.Millisecond {
		t.Fatalf("batch waited out the injected delay (%v)", elapsed)
	}
	if st := pool.Snapshot(); st.SpeculativeHits == 0 {
		t.Fatalf("delay never speculated: %+v", st)
	}
}
