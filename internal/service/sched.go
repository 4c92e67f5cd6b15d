package service

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"imdpp/internal/obs"
)

// DefaultTenant is the tenant requests without an explicit tenant are
// accounted under.
const DefaultTenant = "default"

// maxTenants bounds the number of distinct tenant queues the scheduler
// tracks. Tenants beyond the bound (none of which were configured — a
// configured tenant always gets its own queue) alias to the default
// queue, so an adversary inventing tenant names cannot grow the
// scheduler without bound.
const maxTenants = 64

// TenantQuota bounds and weights one tenant's share of the service
// (DESIGN.md §12). The zero value selects the defaults.
type TenantQuota struct {
	// Weight is the tenant's deficit-weighted round-robin share: a
	// weight-3 tenant dequeues up to three jobs per scheduler cycle for
	// every one of a weight-1 tenant (default 1).
	Weight int
	// MaxQueue bounds the tenant's queued (not yet running) jobs;
	// admission beyond it sheds with a quota_exceeded QuotaError
	// (default: the service-wide QueueDepth).
	MaxQueue int
	// MaxInflight bounds the tenant's concurrently running jobs. The
	// scheduler skips the tenant while it is at the cap — the jobs stay
	// queued, they are not shed (default: the service worker count, so
	// one tenant can saturate an otherwise idle service).
	MaxInflight int
}

func (q TenantQuota) withDefaults(queueDepth, workers int) TenantQuota {
	if q.Weight <= 0 {
		q.Weight = 1
	}
	if q.MaxQueue <= 0 {
		q.MaxQueue = queueDepth
	}
	if q.MaxInflight <= 0 {
		q.MaxInflight = workers
	}
	return q
}

// QuotaError is a typed admission rejection: the global queue or the
// tenant's own quota had no room. It unwraps to ErrQueueFull so
// pre-tenant callers checking errors.Is(err, ErrQueueFull) keep
// working; new callers switch on Code and honour RetryAfter.
type QuotaError struct {
	// Code is the machine-readable shed reason: "queue_full" (the
	// service-wide queue bound) or "quota_exceeded" (the tenant's own
	// MaxQueue).
	Code string
	// Tenant is the tenant the request was accounted under.
	Tenant string
	// Depth and Limit are the bound that rejected: current occupancy
	// and its cap.
	Depth, Limit int
	// RetryAfter estimates when a slot should free up, from the queue
	// backlog and the observed mean solve time — the daemon's
	// Retry-After header.
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: %s for tenant %q (%d/%d queued); retry after %s",
		e.Code, e.Tenant, e.Depth, e.Limit, e.RetryAfter)
}

// Is reports both shed reasons as ErrQueueFull, the pre-tenant
// submission failure, so existing retry loops keep working unchanged.
func (e *QuotaError) Is(target error) bool { return target == ErrQueueFull }

// Shed reason codes carried by QuotaError.Code and the daemon's typed
// 429 bodies.
const (
	ShedQueueFull     = "queue_full"
	ShedQuotaExceeded = "quota_exceeded"
)

// TenantMetrics is one tenant's slice of the /metrics "tenants" block.
type TenantMetrics struct {
	Admitted      uint64 `json:"admitted"`
	Completed     uint64 `json:"completed"`
	ShedQuota     uint64 `json:"shed_quota"`
	ShedQueueFull uint64 `json:"shed_queue_full"`
	Queued        int    `json:"queued"`
	Inflight      int    `json:"inflight"`
	Weight        int    `json:"weight"`
	MaxQueue      int    `json:"max_queue"`
	MaxInflight   int    `json:"max_inflight"`
	// QueueWait is the tenant's own queue-wait histogram, so fairness
	// is observable per tenant: a greedy neighbour should move its own
	// tail, not everyone else's.
	QueueWait obs.HistStats `json:"queue_wait"`
}

// tenantQ is one tenant's bounded sub-queue plus its accounting. All
// fields are guarded by the owning scheduler's mutex except hist,
// which is internally synchronised.
type tenantQ struct {
	name  string
	quota TenantQuota

	// q holds queued jobs ordered for dispatch: higher Priority first,
	// FIFO within a priority (stable insertion).
	q        []*Job
	inflight int

	admitted  uint64
	completed uint64
	shedQuota uint64
	shedFull  uint64
	hist      *obs.Histogram
}

// scheduler replaces the FIFO job channel with per-tenant bounded
// sub-queues drained by deficit-weighted round-robin (DESIGN.md §12).
// Scheduling only reorders result-invariant work: each admitted job's
// solve is a pure function of its request (§3), so any drain order
// returns bit-identical per-job results.
type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	queueDepth int // service-wide queued bound
	workers    int // default MaxInflight
	quotas     map[string]TenantQuota
	defQuota   TenantQuota
	// retryAfter estimates time-to-free-slot from the backlog; injected
	// by the service so the estimate can use the live solve histogram.
	retryAfter func(queued int) time.Duration

	tenants map[string]*tenantQ
	ring    []*tenantQ // round-robin visit order, append-only
	rr      int        // ring index currently holding credit
	credit  int        // dequeues the rr tenant may still take this cycle
	total   int        // queued jobs across all tenants
	closed  bool
}

func newScheduler(cfg Config) *scheduler {
	s := &scheduler{
		queueDepth: cfg.QueueDepth,
		workers:    cfg.Workers,
		quotas:     cfg.Tenants,
		defQuota:   cfg.DefaultQuota.withDefaults(cfg.QueueDepth, cfg.Workers),
		retryAfter: func(int) time.Duration { return time.Second },
		tenants:    make(map[string]*tenantQ),
	}
	s.cond = sync.NewCond(&s.mu)
	// materialise configured tenants up front so their quota rows show
	// in /metrics before their first request, and so the maxTenants
	// aliasing below can never displace a configured tenant
	for name := range cfg.Tenants {
		s.tenantLocked(name)
	}
	return s
}

// tenantLocked resolves (creating on first sight) the queue for a
// tenant name; s.mu must be held. Unconfigured tenants beyond the
// maxTenants bound alias to the default queue.
func (s *scheduler) tenantLocked(name string) *tenantQ {
	if name == "" {
		name = DefaultTenant
	}
	if tq, ok := s.tenants[name]; ok {
		return tq
	}
	quota, configured := s.quotas[name]
	if !configured {
		if name != DefaultTenant && len(s.tenants) >= maxTenants {
			return s.tenantLocked(DefaultTenant)
		}
		quota = s.defQuota
	}
	tq := &tenantQ{
		name:  name,
		quota: quota.withDefaults(s.queueDepth, s.workers),
		hist:  obs.NewHistogram(),
	}
	s.tenants[name] = tq
	s.ring = append(s.ring, tq)
	return tq
}

// admit enqueues j under its tenant, or sheds it with a typed
// QuotaError: the service-wide queue bound sheds as queue_full, the
// tenant's own MaxQueue as quota_exceeded. On success the job's
// tenant field is canonicalised to the accounting tenant (aliased
// names report the queue that actually holds them).
func (s *scheduler) admit(j *Job) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	tq := s.tenantLocked(j.tenant)
	if s.total >= s.queueDepth {
		tq.shedFull++
		retry := s.retryAfter(s.total)
		s.mu.Unlock()
		return &QuotaError{Code: ShedQueueFull, Tenant: tq.name,
			Depth: s.total, Limit: s.queueDepth, RetryAfter: retry}
	}
	if len(tq.q) >= tq.quota.MaxQueue {
		tq.shedQuota++
		retry := s.retryAfter(len(tq.q))
		s.mu.Unlock()
		return &QuotaError{Code: ShedQuotaExceeded, Tenant: tq.name,
			Depth: len(tq.q), Limit: tq.quota.MaxQueue, RetryAfter: retry}
	}
	j.tenant = tq.name
	// stable priority insert: after every queued job with priority >=
	// ours, before the first with a strictly lower one — FIFO within a
	// priority class
	at := len(tq.q)
	for i, queued := range tq.q {
		if queued.priority < j.priority {
			at = i
			break
		}
	}
	tq.q = append(tq.q, nil)
	copy(tq.q[at+1:], tq.q[at:])
	tq.q[at] = j
	tq.admitted++
	s.total++
	s.mu.Unlock()
	s.cond.Signal()
	return nil
}

// next blocks until a job is dispatchable and returns it, or returns
// false once the scheduler is closed and drained. The returned job
// holds its tenant's inflight slot until it settles (settle).
func (s *scheduler) next() (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j := s.pickLocked(); j != nil {
			if s.closed && s.total == 0 {
				// last drained job: wake the other workers so they observe
				// closed-and-empty and exit
				s.cond.Broadcast()
			}
			return j, true
		}
		if s.closed && s.total == 0 {
			return nil, false
		}
		s.cond.Wait()
	}
}

// pickLocked runs one deficit-weighted round-robin scan: the tenant at
// the ring cursor spends one credit per dequeue and yields the cursor
// when its credit or queue is exhausted (or its inflight cap is hit).
// Every tenant with queued work and inflight room is visited at least
// once per cycle, so no tenant starves. s.mu must be held.
func (s *scheduler) pickLocked() *Job {
	n := len(s.ring)
	if n == 0 || s.total == 0 {
		return nil
	}
	for scanned := 0; scanned <= n; scanned++ {
		tq := s.ring[s.rr]
		if s.credit > 0 && s.eligibleLocked(tq) {
			j := tq.q[0]
			tq.q = tq.q[1:]
			s.credit--
			s.total--
			tq.inflight++
			j.dequeued = true
			return j
		}
		s.rr = (s.rr + 1) % n
		s.credit = s.ring[s.rr].quota.Weight
	}
	return nil
}

// eligibleLocked reports whether tq can dispatch now. A closed
// scheduler ignores inflight caps: the drain only settles jobs as
// cancelled, and throttling a shutdown helps no one.
func (s *scheduler) eligibleLocked(tq *tenantQ) bool {
	return len(tq.q) > 0 && (s.closed || tq.inflight < tq.quota.MaxInflight)
}

// settle accounts a job as it settles, from its settled hook and so
// before any waiter wakes: a dequeued job returns its tenant's inflight
// slot, recording its queue wait and whether it completed; a queued one
// leaves its sub-queue, so no worker dequeues a settled job and a
// cancelled job never holds its tenant at MaxQueue. A job never
// admitted (a result-cache hit) is in neither state and costs nothing.
func (s *scheduler) settle(j *Job, qwait time.Duration, completed bool) {
	s.mu.Lock()
	tq := s.tenants[j.tenant]
	if tq == nil {
		s.mu.Unlock()
		return
	}
	if !j.dequeued {
		if i := slices.Index(tq.q, j); i >= 0 {
			tq.q = slices.Delete(tq.q, i, i+1)
			s.total--
		}
		s.mu.Unlock()
		return
	}
	tq.inflight--
	if completed {
		tq.completed++
	}
	s.mu.Unlock()
	tq.hist.Observe(qwait)
	s.cond.Signal()
}

// reload swaps the quota table atomically (DESIGN.md §12): every
// existing tenant queue is re-derived from the new configuration —
// configured tenants get their new quota, the rest the new default —
// and newly configured tenants are materialised so their rows appear
// in /metrics immediately. Queued jobs are untouched: a tenant whose
// MaxQueue shrank below its current depth keeps its backlog and simply
// sheds new admissions until it drains under the new cap. Weight and
// inflight-cap changes take effect at the next scheduler scan.
func (s *scheduler) reload(quotas map[string]TenantQuota, def TenantQuota) {
	s.mu.Lock()
	s.quotas = quotas
	s.defQuota = def.withDefaults(s.queueDepth, s.workers)
	for name, tq := range s.tenants {
		quota, configured := quotas[name]
		if !configured {
			quota = s.defQuota
		}
		tq.quota = quota.withDefaults(s.queueDepth, s.workers)
	}
	for name := range quotas {
		s.tenantLocked(name)
	}
	s.mu.Unlock()
	// quota growth may make blocked tenants dispatchable right now
	s.cond.Broadcast()
}

// close marks the scheduler closed and wakes every waiter. Queued jobs
// are still handed out (next drains them) so workers settle each as
// cancelled rather than stranding pollers.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// depth reports queued jobs across all tenants.
func (s *scheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// metrics snapshots every tenant's accounting row.
func (s *scheduler) metrics() map[string]TenantMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]TenantMetrics, len(s.tenants))
	for name, tq := range s.tenants {
		out[name] = TenantMetrics{
			Admitted:      tq.admitted,
			Completed:     tq.completed,
			ShedQuota:     tq.shedQuota,
			ShedQueueFull: tq.shedFull,
			Queued:        len(tq.q),
			Inflight:      tq.inflight,
			Weight:        tq.quota.Weight,
			MaxQueue:      tq.quota.MaxQueue,
			MaxInflight:   tq.quota.MaxInflight,
			QueueWait:     tq.hist.Stats(),
		}
	}
	return out
}

// ParseTenantQuotas parses the -tenant-quotas flag syntax: a
// comma-separated list of name:weight:max_queue:max_inflight entries
// with zero fields selecting defaults, e.g.
// "pro:4:32:4,free:1:8:1". The name "default" sets the quota every
// unlisted tenant gets.
func ParseTenantQuotas(spec string) (map[string]TenantQuota, TenantQuota, error) {
	quotas := make(map[string]TenantQuota)
	var def TenantQuota
	for _, entry := range strings.Split(spec, ",") {
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 4 || parts[0] == "" {
			return nil, def, fmt.Errorf("service: bad tenant quota %q (want name:weight[:max_queue[:max_inflight]])", entry)
		}
		var q TenantQuota
		var err error
		if q.Weight, err = quotaInt(parts[1]); err != nil {
			return nil, def, fmt.Errorf("service: tenant %q: bad weight %q", parts[0], parts[1])
		}
		if len(parts) > 2 {
			if q.MaxQueue, err = quotaInt(parts[2]); err != nil {
				return nil, def, fmt.Errorf("service: tenant %q: bad max_queue %q", parts[0], parts[2])
			}
		}
		if len(parts) > 3 {
			if q.MaxInflight, err = quotaInt(parts[3]); err != nil {
				return nil, def, fmt.Errorf("service: tenant %q: bad max_inflight %q", parts[0], parts[3])
			}
		}
		if parts[0] == DefaultTenant {
			def = q
			continue
		}
		quotas[parts[0]] = q
	}
	return quotas, def, nil
}

// quotaInt parses one quota number: a decimal in [0, 2³⁰] with no
// sign, "" meaning 0 (take the default).
func quotaInt(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err == nil && n > 1<<30 {
		err = errors.New("out of range")
	}
	return int(n), err
}
