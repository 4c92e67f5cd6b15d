package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imdpp/internal/core"
)

// schedFor builds a bare scheduler with a deterministic ring: tenants
// enter the ring in first-admission order, so drain sequences are
// exactly reproducible (newScheduler's up-front materialisation walks
// a map, whose order tests must not depend on).
func schedFor(workers, depth int, quotas map[string]TenantQuota) *scheduler {
	s := newScheduler(Config{Workers: workers, QueueDepth: depth}.withDefaults())
	s.quotas = quotas
	return s
}

func schedJob(tenant string, priority int) *Job {
	return &Job{tenant: tenant, priority: priority, done: make(chan struct{})}
}

// TestSchedulerDRRFairness: with weights 2:1, every full cycle drains
// two of tenant a's jobs per one of b's, and neither tenant starves.
func TestSchedulerDRRFairness(t *testing.T) {
	s := schedFor(8, 64, map[string]TenantQuota{
		"a": {Weight: 2},
		"b": {Weight: 1},
	})
	for i := 0; i < 4; i++ {
		if err := s.admit(schedJob("a", 0)); err != nil {
			t.Fatalf("admit a%d: %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := s.admit(schedJob("b", 0)); err != nil {
			t.Fatalf("admit b%d: %v", i, err)
		}
	}
	var order []string
	for i := 0; i < 8; i++ {
		j, ok := s.next()
		if !ok {
			t.Fatalf("next %d: scheduler closed early", i)
		}
		order = append(order, j.tenant)
		s.settle(j, 0, true)
	}
	count := func(upto int, tenant string) int {
		n := 0
		for _, tn := range order[:upto] {
			if tn == tenant {
				n++
			}
		}
		return n
	}
	// both tenants appear in the first DRR cycle (no starvation), in
	// the 2:1 weight ratio; by six dequeues the ratio holds exactly
	if count(3, "a") != 2 || count(3, "b") != 1 {
		t.Fatalf("first cycle %v, want two a's and one b", order[:3])
	}
	if count(6, "a") != 4 || count(6, "b") != 2 {
		t.Fatalf("first two cycles %v, want 4 a's and 2 b's", order[:6])
	}
	if count(8, "a") != 4 || count(8, "b") != 4 {
		t.Fatalf("full drain %v, want all eight jobs", order)
	}
}

// TestSchedulerPriorityOrder: within one tenant, higher priority
// dispatches first and equal priorities stay FIFO.
func TestSchedulerPriorityOrder(t *testing.T) {
	s := schedFor(1, 16, nil)
	jobs := []*Job{
		schedJob("", 0), // j0
		schedJob("", 0), // j1
		schedJob("", 5), // j2
		schedJob("", 1), // j3
		schedJob("", 5), // j4: same priority as j2, admitted later
	}
	for i, j := range jobs {
		if err := s.admit(j); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	want := []*Job{jobs[2], jobs[4], jobs[3], jobs[0], jobs[1]}
	for i, w := range want {
		j, ok := s.next()
		if !ok {
			t.Fatalf("next %d: closed", i)
		}
		if j != w {
			t.Fatalf("dequeue %d: got job %d, want job %d", i, indexOf(jobs, j), indexOf(jobs, w))
		}
		s.settle(j, 0, true)
	}
}

func indexOf(jobs []*Job, j *Job) int {
	for i, cand := range jobs {
		if cand == j {
			return i
		}
	}
	return -1
}

// TestSchedulerMaxInflight: a tenant at its inflight cap is skipped —
// its jobs stay queued, not shed — and becomes dispatchable again the
// moment a slot releases.
func TestSchedulerMaxInflight(t *testing.T) {
	s := schedFor(4, 16, map[string]TenantQuota{"a": {MaxInflight: 1}})
	a1, a2, b1 := schedJob("a", 0), schedJob("a", 0), schedJob("b", 0)
	for _, j := range []*Job{a1, a2, b1} {
		if err := s.admit(j); err != nil {
			t.Fatal(err)
		}
	}
	got := map[*Job]bool{}
	for i := 0; i < 2; i++ {
		j, ok := s.next()
		if !ok {
			t.Fatal("closed early")
		}
		got[j] = true
	}
	if !got[a1] || !got[b1] || got[a2] {
		t.Fatalf("first two dispatches: a1=%v b1=%v a2=%v; want a1 and b1 only", got[a1], got[b1], got[a2])
	}
	// a is at its cap: next() must block rather than hand out a2
	picked := make(chan *Job, 1)
	go func() {
		if j, ok := s.next(); ok {
			picked <- j
		}
	}()
	select {
	case j := <-picked:
		t.Fatalf("dispatched job for capped tenant %q", j.tenant)
	case <-time.After(50 * time.Millisecond):
	}
	s.settle(a1, 0, true)
	select {
	case j := <-picked:
		if j != a2 {
			t.Fatalf("post-release dispatch: wrong job")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("release did not unblock the capped tenant")
	}
}

// TestTenantQuotaShed: a tenant at its MaxQueue sheds with a typed
// quota_exceeded QuotaError — still errors.Is(…, ErrQueueFull) for
// pre-tenant callers — while other tenants keep admitting.
func TestTenantQuotaShed(t *testing.T) {
	s := schedFor(1, 16, map[string]TenantQuota{"small": {MaxQueue: 1}})
	if err := s.admit(schedJob("small", 0)); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	err := s.admit(schedJob("small", 0))
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("want QuotaError, got %v", err)
	}
	if qe.Code != ShedQuotaExceeded || qe.Tenant != "small" || qe.Limit != 1 {
		t.Fatalf("shed = %+v, want quota_exceeded for small with limit 1", qe)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatal("QuotaError must satisfy errors.Is(err, ErrQueueFull)")
	}
	if qe.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %v below the 1s floor", qe.RetryAfter)
	}
	// the shed is per-tenant: an unrelated tenant still has room
	if err := s.admit(schedJob("other", 0)); err != nil {
		t.Fatalf("other tenant shed alongside: %v", err)
	}
	m := s.metrics()
	if m["small"].ShedQuota != 1 || m["small"].Queued != 1 {
		t.Fatalf("small row %+v, want shed_quota 1 queued 1", m["small"])
	}
}

// TestSchedulerQuotaReload: reload swaps the quota table atomically —
// queued jobs survive, a tenant whose MaxQueue shrank below its
// current depth keeps its backlog and sheds only new admissions, and
// newly configured tenants appear with their quotas.
func TestSchedulerQuotaReload(t *testing.T) {
	s := schedFor(1, 64, map[string]TenantQuota{"pro": {Weight: 4, MaxQueue: 8}})
	for i := 0; i < 4; i++ {
		if err := s.admit(schedJob("pro", 0)); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}

	// shrink pro's MaxQueue to 2 — below its current depth of 4 — and
	// configure a brand-new tenant in the same swap
	s.reload(map[string]TenantQuota{
		"pro": {Weight: 1, MaxQueue: 2},
		"new": {Weight: 2, MaxQueue: 5},
	}, TenantQuota{})

	m := s.metrics()
	if m["pro"].Queued != 4 {
		t.Fatalf("reload dropped queued jobs: %+v", m["pro"])
	}
	if m["pro"].MaxQueue != 2 || m["pro"].Weight != 1 {
		t.Fatalf("pro quota not swapped: %+v", m["pro"])
	}
	if m["new"].MaxQueue != 5 || m["new"].Weight != 2 {
		t.Fatalf("new tenant not materialised: %+v", m["new"])
	}

	// over the shrunk cap: new admissions shed, the backlog is intact
	err := s.admit(schedJob("pro", 0))
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Code != ShedQuotaExceeded || qe.Limit != 2 {
		t.Fatalf("admission over the shrunk cap: %v, want quota_exceeded limit 2", err)
	}
	if got := s.metrics()["pro"].Queued; got != 4 {
		t.Fatalf("shed admission disturbed the backlog: %d queued", got)
	}

	// drain under the new cap; the queued jobs all dispatch
	for i := 0; i < 4; i++ {
		j, ok := s.next()
		if !ok || j.tenant != "pro" {
			t.Fatalf("drain %d: ok=%v tenant=%q", i, ok, j.tenant)
		}
		s.settle(j, 0, true)
	}
	// with the backlog drained below MaxQueue, admission works again
	if err := s.admit(schedJob("pro", 0)); err != nil {
		t.Fatalf("admission after draining under the new cap: %v", err)
	}
	// a tenant dropped from the config falls back to the new default
	s.reload(nil, TenantQuota{MaxQueue: 3})
	if got := s.metrics()["pro"].MaxQueue; got != 3 {
		t.Fatalf("deconfigured tenant kept its old quota: max_queue %d, want default 3", got)
	}
}

// TestGlobalQueueFullTyped: the service-wide bound sheds as queue_full
// regardless of tenant, and is checked before the tenant bound.
func TestGlobalQueueFullTyped(t *testing.T) {
	s := schedFor(1, 2, nil)
	for i := 0; i < 2; i++ {
		if err := s.admit(schedJob(fmt.Sprintf("t%d", i), 0)); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	err := s.admit(schedJob("t9", 0))
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Code != ShedQueueFull {
		t.Fatalf("want queue_full QuotaError, got %v", err)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatal("queue_full must satisfy errors.Is(err, ErrQueueFull)")
	}
}

// TestTenantAliasingBounded: unconfigured tenants beyond the
// maxTenants bound alias to the default queue, so adversarial tenant
// names cannot grow the scheduler without bound.
func TestTenantAliasingBounded(t *testing.T) {
	s := schedFor(1, 1<<20, nil)
	for i := 0; i < maxTenants+16; i++ {
		j := schedJob(fmt.Sprintf("mallory-%d", i), 0)
		if err := s.admit(j); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		if i >= maxTenants && j.tenant != DefaultTenant {
			t.Fatalf("tenant %d not aliased to default: %q", i, j.tenant)
		}
	}
	if n := len(s.metrics()); n > maxTenants+1 {
		t.Fatalf("%d tenant rows, want at most %d", n, maxTenants+1)
	}
}

func TestParseTenantQuotas(t *testing.T) {
	cases := []struct {
		spec    string
		want    map[string]TenantQuota
		wantDef TenantQuota
		wantErr bool
	}{
		{spec: "", want: map[string]TenantQuota{}},
		{
			spec: "pro:4:32:4,free:1:8:1",
			want: map[string]TenantQuota{
				"pro":  {Weight: 4, MaxQueue: 32, MaxInflight: 4},
				"free": {Weight: 1, MaxQueue: 8, MaxInflight: 1},
			},
		},
		{
			spec:    "pro:2,default:1:4",
			want:    map[string]TenantQuota{"pro": {Weight: 2}},
			wantDef: TenantQuota{Weight: 1, MaxQueue: 4},
		},
		{spec: "pro:2::3", want: map[string]TenantQuota{"pro": {Weight: 2, MaxInflight: 3}}},
		{spec: "pro", wantErr: true},
		{spec: ":2", wantErr: true},
		{spec: "pro:x", wantErr: true},
		{spec: "pro:1:2:3:4", wantErr: true},
		{spec: "pro:1:-2", wantErr: true},
		{spec: "pro:+1", wantErr: true},
		{spec: "pro: 1", wantErr: true},
		{spec: "pro:2000000000", wantErr: true},
		{spec: "pro:1073741825", wantErr: true},
		{spec: "pro:1073741824", want: map[string]TenantQuota{"pro": {Weight: 1 << 30}}},
		{spec: ",pro:1,,", want: map[string]TenantQuota{"pro": {Weight: 1}}},
	}
	for _, c := range cases {
		got, def, err := ParseTenantQuotas(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseTenantQuotas(%q): want error, got %v", c.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTenantQuotas(%q): %v", c.spec, err)
			continue
		}
		if def != c.wantDef {
			t.Errorf("ParseTenantQuotas(%q) default = %+v, want %+v", c.spec, def, c.wantDef)
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseTenantQuotas(%q) = %+v, want %+v", c.spec, got, c.want)
			continue
		}
		for name, q := range c.want {
			if got[name] != q {
				t.Errorf("ParseTenantQuotas(%q)[%s] = %+v, want %+v", c.spec, name, got[name], q)
			}
		}
	}
}

// TestGoldenSchedulingBitIdentity is the §3 proof for the scheduler:
// the same request set solved FIFO on one worker and interleaved
// across weighted tenants with priorities on several workers returns
// Float64bits-identical solutions. Scheduling reorders work; it never
// touches a result bit.
func TestGoldenSchedulingBitIdentity(t *testing.T) {
	p := sampleProblem(t, 80, 3)
	const n = 4
	reqOf := func(i int) Request {
		return Request{Problem: p, Options: core.Options{
			MC: 4, MCSI: 2, Seed: uint64(i + 1), CandidateCap: 16,
		}}
	}

	// FIFO baseline: single worker, default tenant, strictly sequential
	fifo := New(Config{Workers: 1, CacheSize: -1})
	base := make([]*core.Solution, n)
	for i := 0; i < n; i++ {
		j, _, err := fifo.Submit(reqOf(i))
		if err != nil {
			t.Fatalf("fifo submit %d: %v", i, err)
		}
		sol, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("fifo job %d: %v", i, err)
		}
		base[i] = sol
	}
	fifo.Close()

	// interleaved: two workers, weighted tenants, mixed priorities,
	// all submitted up front so the DRR scan genuinely reorders them
	fair := New(Config{Workers: 2, CacheSize: -1, Tenants: map[string]TenantQuota{
		"gold":   {Weight: 3},
		"bronze": {Weight: 1, MaxInflight: 1},
	}})
	defer fair.Close()
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		r := reqOf(i)
		if i%2 == 0 {
			r.Tenant = "gold"
		} else {
			r.Tenant = "bronze"
		}
		r.Priority = (n - i) % 3
		j, _, err := fair.Submit(r)
		if err != nil {
			t.Fatalf("fair submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		sol, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("fair job %d: %v", i, err)
		}
		if math.Float64bits(sol.Sigma) != math.Float64bits(base[i].Sigma) {
			t.Errorf("job %d: sigma %x under fair scheduling, %x FIFO", i,
				math.Float64bits(sol.Sigma), math.Float64bits(base[i].Sigma))
		}
		if math.Float64bits(sol.Cost) != math.Float64bits(base[i].Cost) {
			t.Errorf("job %d: cost differs: %v vs %v", i, sol.Cost, base[i].Cost)
		}
		if len(sol.Seeds) != len(base[i].Seeds) {
			t.Errorf("job %d: %d seeds under fair scheduling, %d FIFO", i, len(sol.Seeds), len(base[i].Seeds))
			continue
		}
		for k := range sol.Seeds {
			if sol.Seeds[k] != base[i].Seeds[k] {
				t.Errorf("job %d seed %d differs: %+v vs %+v", i, k, sol.Seeds[k], base[i].Seeds[k])
			}
		}
	}
}

// subscribe drains a job's event log the way the daemon's SSE handler
// does — Wake before EventsSince, loop until terminal — and reports
// the terminal events observed (must be exactly one).
func subscribe(j *Job, timeout time.Duration) (terminals []Event, ok bool) {
	deadline := time.After(timeout)
	last := 0
	for {
		wake := j.Wake()
		evs, terminal := j.EventsSince(last)
		for _, ev := range evs {
			last = ev.Seq
			if ev.Type != "progress" {
				terminals = append(terminals, ev)
			}
		}
		if terminal {
			return terminals, true
		}
		select {
		case <-wake:
		case <-deadline:
			return terminals, false
		}
	}
}

// TestRetireDeliversTerminalToSubscribers pins the retirement ordering
// guarantee (DESIGN.md §12): a subscriber attached to a job that gets
// evicted from the retention window still observes the terminal event,
// exactly once — finish publishes it before any retireJob caller can
// evict the id.
func TestRetireDeliversTerminalToSubscribers(t *testing.T) {
	s := New(Config{Workers: 1, JobRetention: 1, CacheSize: -1})
	defer s.Close()
	p := sampleProblem(t, 80, 3)

	r1 := quickReq(p)
	r1.Options.Seed = 1
	j1, _, err := s.Submit(r1)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	got := make(chan []Event, 1)
	go func() {
		terminals, ok := subscribe(j1, 30*time.Second)
		if !ok {
			terminals = nil
		}
		got <- terminals
	}()
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatalf("job 1: %v", err)
	}
	// push j1 out of the retention window (retention 1)
	r2 := quickReq(p)
	r2.Options.Seed = 2
	j2, _, err := s.Submit(r2)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatalf("job 2: %v", err)
	}
	// Wait returns once finish has run, and the worker calls
	// retireJob(j2) after that; Close joins the worker pool, so by the
	// time it returns job 2 has been retired and job 1 evicted
	s.Close()
	if _, ok := s.Job(j1.ID()); ok {
		t.Fatal("job 1 should have been evicted from the retention window")
	}
	terminals := <-got
	if len(terminals) != 1 {
		t.Fatalf("subscriber saw %d terminal events, want exactly 1", len(terminals))
	}
	term := terminals[0]
	if term.Type != string(StatusDone) || term.Job == nil || term.Job.Solution == nil {
		t.Fatalf("terminal event %+v, want done with the full snapshot", term)
	}
	// the evicted job's log still answers resumes: the terminal event
	// is never evicted from the Job itself
	evs, terminal := j1.EventsSince(0)
	if !terminal || len(evs) == 0 || evs[len(evs)-1].Type != string(StatusDone) {
		t.Fatalf("post-eviction EventsSince = (%d events, terminal=%v)", len(evs), terminal)
	}
}

// TestSchedulerStressConcurrent is the race-tier scheduler stress:
// concurrent submitters across weighted tenants with mixed priorities
// and mid-flight cancellations, SSE-style subscribers on every job,
// then an exact-accounting audit — every admission is matched by a
// terminal outcome, no queue slot or inflight slot leaks, and the
// worker pool and subscribers exit cleanly on Close.
func TestSchedulerStressConcurrent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{Workers: 3, QueueDepth: 64, CacheSize: -1, Tenants: map[string]TenantQuota{
		"t0": {Weight: 3},
		"t1": {Weight: 1, MaxQueue: 32},
		"t2": {Weight: 2, MaxInflight: 2},
	}})
	p := sampleProblem(t, 60, 2)

	const tenants, per = 3, 6
	var (
		mu       sync.Mutex
		accepted = map[string][]*Job{}
		shed     atomic.Uint64
	)
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		for i := 0; i < per; i++ {
			wg.Add(1)
			go func(g, i int) {
				defer wg.Done()
				tenant := fmt.Sprintf("t%d", g)
				j, _, err := s.Submit(Request{
					Problem: p,
					Options: core.Options{
						MC: 2, MCSI: 2, CandidateCap: 8,
						// unique seeds: no coalescing, every submission is
						// its own unit of accounting
						Seed: uint64(g*per + i + 1),
					},
					Tenant:   tenant,
					Priority: i % 3,
				})
				if err != nil {
					var qe *QuotaError
					if !errors.As(err, &qe) {
						t.Errorf("untyped submit error: %v", err)
					}
					shed.Add(1)
					return
				}
				mu.Lock()
				accepted[tenant] = append(accepted[tenant], j)
				mu.Unlock()
				if i%4 == 0 {
					j.Cancel() // races the dispatch on purpose
				}
			}(g, i)
		}
	}
	wg.Wait()

	// one SSE-style subscriber per job; every one must observe exactly
	// one terminal event
	var subs sync.WaitGroup
	for _, jobs := range accepted {
		for _, j := range jobs {
			subs.Add(1)
			go func(j *Job) {
				defer subs.Done()
				terminals, ok := subscribe(j, 60*time.Second)
				if !ok || len(terminals) != 1 {
					t.Errorf("job %s: subscriber saw %d terminals (ok=%v), want 1", j.ID(), len(terminals), ok)
				}
			}(j)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, jobs := range accepted {
		for _, j := range jobs {
			_, _ = j.Wait(ctx) // cancelled jobs surface context.Canceled: fine
			if ctx.Err() != nil {
				t.Fatal("jobs did not settle: possible starvation")
			}
		}
	}
	subs.Wait()

	m := s.Metrics()
	var admitted uint64
	for name, row := range m.Tenants {
		if row.Queued != 0 || row.Inflight != 0 {
			t.Errorf("tenant %s: queued=%d inflight=%d after settle, want 0/0", name, row.Queued, row.Inflight)
		}
		admitted += row.Admitted
		mu.Lock()
		acc := uint64(len(accepted[name]))
		mu.Unlock()
		if row.Admitted != acc {
			t.Errorf("tenant %s: admitted %d, accepted submissions %d", name, row.Admitted, acc)
		}
	}
	var shedRows uint64
	for _, row := range m.Tenants {
		shedRows += row.ShedQuota + row.ShedQueueFull
	}
	if admitted+shedRows != tenants*per {
		t.Errorf("admitted %d + shed %d != %d submissions", admitted, shedRows, tenants*per)
	}
	if shedRows != shed.Load() {
		t.Errorf("shed rows %d != shed errors returned %d", shedRows, shed.Load())
	}

	s.Close()
	checkNoGoroutineLeak(t, baseline)
}

// TestInflightReleasedBeforeWait: a job returns its tenant's inflight
// slot before any waiter wakes, on every path that dequeues it — run
// to completion, cancelled after dequeue and drained at close — so
// Metrics read right after Wait never shows it inflight. Each job has
// a tenant of its own, so its row's inflight count is its own.
func TestInflightReleasedBeforeWait(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 64, CacheSize: -1})
	p := sampleProblem(t, 60, 2)
	var wg sync.WaitGroup
	submit := func(req Request, tenant string, seed uint64) *Job {
		req.Tenant = tenant
		req.Options.Seed = seed
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = j.Wait(context.Background())
			if row := s.Metrics().Tenants[tenant]; row.Inflight != 0 || row.Queued != 0 {
				t.Errorf("tenant %s: inflight=%d queued=%d right after Wait, want 0/0", tenant, row.Inflight, row.Queued)
			}
		}()
		return j
	}
	for i := range 48 {
		j := submit(quickReq(p), fmt.Sprintf("run%d", i), uint64(i+1))
		if i%3 == 0 {
			j.Cancel() // races the dispatch: queued, dequeued or running
		}
	}
	wg.Wait()
	// drained at close: two solves running, the rest queued behind them
	for i := range 6 {
		submit(slowReq(p), fmt.Sprintf("close%d", i), uint64(i+1))
	}
	s.Close()
	wg.Wait()
}

// TestCloseWithSubscribersAttached: Close settles every queued job as
// cancelled and publishes its terminal event, so SSE subscribers
// attached at close time unblock instead of leaking.
func TestCloseWithSubscribersAttached(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{Workers: 1, QueueDepth: 16, CacheSize: -1})
	p := sampleProblem(t, 80, 3)

	var jobs []*Job
	for seed := uint64(1); seed <= 4; seed++ {
		r := slowReq(p)
		r.Options.Seed = seed
		j, _, err := s.Submit(r)
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		jobs = append(jobs, j)
	}
	var subs sync.WaitGroup
	for _, j := range jobs {
		subs.Add(1)
		go func(j *Job) {
			defer subs.Done()
			terminals, ok := subscribe(j, 30*time.Second)
			if !ok || len(terminals) != 1 {
				t.Errorf("job %s: %d terminals (ok=%v), want exactly 1 on close", j.ID(), len(terminals), ok)
			}
		}(j)
	}
	s.Close()
	subs.Wait()
	checkNoGoroutineLeak(t, baseline)
}
