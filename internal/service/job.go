package service

import (
	"context"
	"sync"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/diffusion"
	"imdpp/internal/obs"
)

// Status is the lifecycle state of a job.
type Status string

// Job lifecycle states.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Job is one asynchronous solve tracked by the Service. All methods
// are safe for concurrent use.
type Job struct {
	id  string
	key diffusion.Digest
	req Request

	// tenant and priority are the scheduling coordinates (DESIGN.md
	// §12): tenant selects the sub-queue (canonicalised by admit),
	// priority orders within it. Immutable after admission.
	tenant   string
	priority int
	// dequeued marks a job a worker has taken from its sub-queue, which
	// holds an inflight slot until it settles. Guarded by the
	// scheduler's mutex.
	dequeued bool

	ctx        context.Context
	cancelCtx  context.CancelFunc
	cancelHook func() // set by the Service: ctx cancel + queue bookkeeping
	done       chan struct{}

	// backend labels the estimation backend the request selected:
	// BackendSketch for epsilon requests, empty for the default MC
	// path (so pre-epsilon job snapshots keep byte-identical JSON).
	backend string

	mu       sync.Mutex
	status   Status
	cacheHit bool
	events   int
	progress core.ProgressEvent
	sol      *core.Solution
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	traceID  string
	phases   []PhaseTiming

	// event log (events.go): bounded progress ring + the terminal
	// event, with wakeCh releasing SSE/long-poll waiters per publish.
	seq      int
	ring     []Event
	terminal *Event
	wakeCh   chan struct{}
}

// JobView is the JSON-able snapshot of a job, the body of the
// daemon's GET /v1/jobs/{id} response.
type JobView struct {
	ID       string `json:"id"`
	Key      string `json:"key"` // content address of the request
	Status   Status `json:"status"`
	CacheHit bool   `json:"cache_hit"`
	// Tenant is the scheduling tenant the job was accounted under;
	// Priority its within-tenant dispatch priority (omitted at the
	// defaults, keeping pre-tenant snapshots byte-identical).
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Backend echoes the estimation backend the request selected
	// ("sketch" for epsilon requests); omitted on the exact MC path so
	// existing clients see unchanged bytes.
	Backend string `json:"backend,omitempty"`
	// Progress is the latest solver event; ProgressEvents counts how
	// many were emitted, so pollers can detect movement between
	// identical-looking snapshots.
	Progress       core.ProgressEvent `json:"progress"`
	ProgressEvents int                `json:"progress_events"`
	// TraceID correlates the job with its trace at GET /debug/traces
	// and in structured logs; omitted when the daemon runs untraced.
	TraceID string `json:"trace_id,omitempty"`
	// Phases is the per-phase timing breakdown (DESIGN.md §11), present
	// once the solve has finished on a daemon emitting progress.
	Phases       []PhaseTiming  `json:"phases,omitempty"`
	Solution     *core.Solution `json:"solution,omitempty"`
	Error        string         `json:"error,omitempty"`
	CreatedAt    time.Time      `json:"created_at"`
	StartedAt    time.Time      `json:"started_at,omitzero"`
	FinishedAt   time.Time      `json:"finished_at,omitzero"`
	QueueSeconds float64        `json:"queue_seconds"`
	SolveSeconds float64        `json:"solve_seconds"`
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Key returns the content address of the job's request.
func (j *Job) Key() diffusion.Digest { return j.key }

// Done returns a channel closed when the job reaches a terminal
// state (done, failed or cancelled).
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cancellation. A queued job is cancelled
// immediately; a running job aborts within about one campaign
// simulation. Cancelling a finished job is a no-op.
func (j *Job) Cancel() { j.cancelHook() }

// Wait blocks until the job finishes or ctx fires, returning the
// solution or the job's terminal error.
func (j *Job) Wait(ctx context.Context) (*core.Solution, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sol, j.err
}

// Snapshot returns a JSON-able view of the job's current state.
func (j *Job) Snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// snapshotLocked builds the view; j.mu must be held.
func (j *Job) snapshotLocked() JobView {
	tenant := j.tenant
	if tenant == DefaultTenant {
		// requests that never named a tenant (and ones naming the
		// default explicitly) keep their pre-tenant snapshot bytes
		tenant = ""
	}
	v := JobView{
		ID:             j.id,
		Key:            j.key.String(),
		Status:         j.status,
		CacheHit:       j.cacheHit,
		Tenant:         tenant,
		Priority:       j.priority,
		Backend:        j.backend,
		Progress:       j.progress,
		ProgressEvents: j.events,
		TraceID:        j.traceID,
		Phases:         j.phases,
		Solution:       j.sol,
		CreatedAt:      j.created,
		StartedAt:      j.started,
		FinishedAt:     j.finished,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		v.QueueSeconds = j.started.Sub(j.created).Seconds()
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.SolveSeconds = end.Sub(j.started).Seconds()
	}
	return v
}

// setTrace records the job's trace id (a no-op for the zero id, so
// untraced daemons keep byte-identical job JSON).
func (j *Job) setTrace(id obs.ID) {
	if id == 0 {
		return
	}
	j.mu.Lock()
	j.traceID = id.String()
	j.mu.Unlock()
}

// setPhases records the finished solve's per-phase breakdown.
func (j *Job) setPhases(phases []PhaseTiming) {
	if len(phases) == 0 {
		return
	}
	j.mu.Lock()
	j.phases = phases
	j.mu.Unlock()
}

// queueWait returns how long the job sat queued before running.
func (j *Job) queueWait() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started.Sub(j.created)
}

// setProgress is the solver's Progress callback target.
func (j *Job) setProgress(ev core.ProgressEvent) {
	j.mu.Lock()
	j.progress = ev
	j.events++
	j.publishProgressLocked(ev)
	j.mu.Unlock()
}

// markRunning transitions queued → running. It returns false when the
// job was already cancelled.
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	return true
}

// finish records the terminal state and releases waiters. Repeated
// calls are ignored, so a cancel racing a normal completion settles
// on whichever finish lands first. settled, run only by the call that
// settles the job, runs before the terminal event is published and
// before Wait returns, so a waiter sees the job counted and retired.
func (j *Job) finish(st Status, sol *core.Solution, err error, settled func()) {
	j.mu.Lock()
	switch j.status {
	case StatusDone, StatusFailed, StatusCancelled:
		j.mu.Unlock()
		return
	}
	j.status = st
	j.sol = sol
	j.err = err
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	settled()
	j.publishTerminalLocked()
	j.mu.Unlock()
	j.cancelCtx() // release the context's resources in every terminal path
	close(j.done)
}

// finishIfQueued settles a job that was cancelled before any worker
// picked it up, running settled as finish does. It is a no-op once the
// job is running or finished — the worker owns the terminal transition
// from then on.
func (j *Job) finishIfQueued(settled func()) bool {
	j.mu.Lock()
	if j.status != StatusQueued {
		j.mu.Unlock()
		return false
	}
	j.status = StatusCancelled
	j.err = context.Canceled
	j.finished = time.Now()
	j.started = j.finished
	settled()
	j.publishTerminalLocked()
	j.mu.Unlock()
	j.cancelCtx()
	close(j.done)
	return true
}
