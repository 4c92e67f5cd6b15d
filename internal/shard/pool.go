package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"imdpp/internal/castore"
	"imdpp/internal/diffusion"
	"imdpp/internal/obs"
	"imdpp/internal/wirebin"
)

// Pool is the coordinator side of the shard RPC: the listed remote
// estimator workers, their health, which problems each has been sent,
// and the dispatch/retry/failover logic.
// All methods are safe for concurrent use.
//
// Failure handling leans entirely on determinism: a shard is a pure
// function of (problem hash, seed, range, groups), so re-dispatching
// it to any other worker — or computing it locally, or racing a
// speculative duplicate against a straggler — after a failure is
// idempotent by construction. No shard needs fencing, draining or
// exactly-once delivery.
type Pool struct {
	client *http.Client
	frames *castore.Store[*ProblemBlob] // upload frames by content key, see blobFor

	mu      sync.Mutex
	remotes []*Remote

	stopOnce sync.Once
	stop     chan struct{}
	loopCtx  context.Context // cancelled by Close; bounds detector probes
	loopStop context.CancelFunc

	// Failure-detector knobs (DESIGN.md §13; fixed after NewPool except
	// in tests).
	probeBase time.Duration // first backoff step after a failure
	probeCap  time.Duration // backoff ceiling (workers out of rotation are re-probed at least this often)
	silence   time.Duration // silence beyond this gets a worker in rotation probed

	rejoins atomic.Uint64

	// Straggler detection knobs (fixed after NewPool except in tests):
	// a shard is a straggler once its elapsed time exceeds
	// specFactor × the median latency of completed shards (floored at
	// specMin, which is also when a batch first checks).
	specFactor float64
	specMin    time.Duration

	// rtTimeout is the ceiling on one stream round trip: the client's
	// Timeout, which never wraps a stream itself (transport).
	rtTimeout time.Duration
	closed    atomic.Bool // Close ran: released streams close

	redispatches    atomic.Uint64
	localFallbacks  atomic.Uint64
	speculativeHits atomic.Uint64
	bytesTx         atomic.Uint64
	bytesRx         atomic.Uint64

	// rpcHist records successful shard-RPC round-trip latency, the
	// latency.shard_rpc block of the daemon's /metrics (DESIGN.md §11).
	rpcHist *obs.Histogram
	logger  *slog.Logger
}

// Remote is one listed worker — its place in rotation (lifecycle.go),
// acknowledged problem uploads and dispatch accounting.
type Remote struct {
	url string

	acks *castore.Store[struct{}] // uploads this worker acknowledged, by content key

	mu      sync.Mutex
	lastErr string

	// Lifecycle bookkeeping (guarded by mu; see lifecycle.go).
	inRotation bool          // a probe answered since the last failure
	probeFails int           // failed probes since the worker left rotation
	strikes    int           // consecutive failed dispatches
	nextProbe  time.Time     // when the failure detector probes next (zero: never probed)
	lastHeard  time.Time     // last successful probe
	probeDone  chan struct{} // the in-flight probe's verdict (nil: none)

	idle []*stream // open streams between requests (stream.go)

	shards   atomic.Uint64
	failures atomic.Uint64
	inflight atomic.Int32 // shard RPCs currently outstanding
}

// newRemote is the entry for the normalized worker URL u. Its ack
// store is bounded like the worker's problem store: an ack evicted
// here costs one re-upload, and the worker holds no more anyway.
func newRemote(u string) *Remote {
	return &Remote{url: u, acks: castore.New(castore.Config[struct{}]{Budget: maxProblems})}
}

// knowsProblem reports whether this worker acknowledged an upload of
// key.
func (r *Remote) knowsProblem(key diffusion.Digest) bool {
	_, ok := r.acks.Get(digestKey(key))
	return ok
}

// digestKey is a content key's castore form: its 16 raw bytes.
func digestKey(d diffusion.Digest) string {
	return string(wirebin.AppendU64(wirebin.AppendU64(make([]byte, 0, 16), d.Hi), d.Lo))
}

// NewPool builds the pool over the workers at the given base URLs
// (e.g. "http://10.0.0.7:8081"): normalized, deduplicated, bounded by
// maxRemotes; malformed URLs are dropped (ParseWorkerList refuses
// them). A worker is out of rotation until a probe answers — Check, the
// health loop or a batch's first-contact probe (probeUnprobed) — and
// any failed dispatch or probe takes it out again until a later probe
// answers (lifecycle.go). Call Check once at startup to verify the
// fleet, and StartHealthLoop for continuous detection.
//
// The pool speaks the binary frame wire (DESIGN.md §8), splits each
// batch evenly over the healthy workers (Plan) and speculatively
// re-dispatches stragglers — both result-invariant (§7/§8).
//
// The client's Transport (nil: http.DefaultTransport) dials the frame
// streams and its Do sends the probes. Its Timeout is the ceiling on
// each stream round trip; client nil selects a default with a 10-minute
// ceiling — a liveness guard so a worker that accepts a shard and then
// hangs forever is eventually classified as failed and its range
// re-dispatched, rather than stalling the solve. Deployments whose
// individual shard estimates legitimately run longer must pass their
// own client with a larger (or zero) Timeout, or estimates will be
// misclassified as worker failures and the batch will fall back to
// local compute (visible as local_fallbacks in PoolStats).
func NewPool(urls []string, client *http.Client) *Pool {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Minute}
	}
	p := &Pool{
		client:     client,
		frames:     castore.New(castore.Config[*ProblemBlob]{Budget: maxFrames}),
		stop:       make(chan struct{}),
		specFactor: 2.0,
		specMin:    25 * time.Millisecond,
		rtTimeout:  client.Timeout,

		probeBase: 250 * time.Millisecond,
		probeCap:  probeCeiling,
		silence:   silenceTimeout,

		rpcHist: obs.NewHistogram(),
		logger:  slog.New(slog.DiscardHandler),
	}
	p.loopCtx, p.loopStop = context.WithCancel(context.Background())
	for _, raw := range urls {
		if u, err := normalizeWorkerURL(raw); err == nil {
			p.entry(u)
		}
	}
	return p
}

// The failure detector's timescale (DESIGN.md §13): a worker in
// rotation unheard from for silenceTimeout is probed, and one out of
// rotation is re-probed at least every probeCeiling.
const (
	silenceTimeout = 6 * time.Second
	probeCeiling   = 6 * time.Second
)

// SetLogger routes the pool's structured dispatch logs (worker
// failures) to l; nil restores discard.
// Call during setup, before any dispatch.
func (p *Pool) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.DiscardHandler)
	}
	p.logger = l
}

// RPCLatency snapshots the shard-RPC latency histogram.
func (p *Pool) RPCLatency() obs.HistStats { return p.rpcHist.Stats() }

// Size returns the number of listed workers.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.remotes)
}

// healthyRemotes snapshots the workers in rotation.
func (p *Pool) healthyRemotes() []*Remote {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Remote, 0, len(p.remotes))
	for _, r := range p.remotes {
		if r.dispatchable() {
			out = append(out, r)
		}
	}
	return out
}

// Check probes every worker's /healthz concurrently (one slow or dead
// worker must not delay the rest — a fleet-wide check costs one probe
// timeout, not one per casualty) and folds each verdict in: down and
// incompatible workers leave rotation, answering ones enter it. A
// worker whose detector probe is in flight keeps that verdict. It
// returns the count in rotation.
func (p *Pool) Check(ctx context.Context) int {
	waitVerdicts(p.probeWhere(ctx, func(*Remote) bool { return true }))
	return len(p.healthyRemotes())
}

// probeUnprobed probes every remote no verdict has reached yet (all
// of them in a pool never Checked) and waits, so the frame version is
// checked before a worker's first upload or estimate. The probes are
// not the batch's: a cancelled solve must not fail a worker.
func (p *Pool) probeUnprobed() {
	waitVerdicts(p.probeWhere(context.Background(), (*Remote).unprobed))
}

func waitVerdicts(verdicts []chan struct{}) {
	for _, done := range verdicts {
		<-done
	}
}

// probe asks r's /healthz (Worker.Mount) whether it is up and which
// frame version it decodes. This is the one compatibility check: a
// worker speaking another version fails the probe and stays out of
// rotation instead of failing request by request.
func (p *Pool) probe(ctx context.Context, r *Remote) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var hz healthBody
	err = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&hz)
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	switch {
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	case err != nil:
		return fmt.Errorf("healthz: %w", err)
	case hz.CodecVersion != frameVersion:
		return fmt.Errorf("worker decodes frame version %d, coordinator speaks %d; upgrade coordinator and workers together",
			hz.CodecVersion, frameVersion)
	}
	return nil
}

// StartHealthLoop starts the failure detector (lifecycle.go) until
// Close. A worker never probed is probed at once, one in rotation once
// silent for silenceTimeout; a worker that died mid-batch is already
// out of rotation (markFailed) and is re-probed on a jittered
// exponential backoff — fast first retries, capped at probeCeiling —
// so restarted workers rejoin without operator action (their problem
// store is re-filled lazily through the unknown_problem path) and a
// recovering worker is never hammered in lockstep.
func (p *Pool) StartHealthLoop() {
	go p.detectLoop()
}

// Close stops the failure detector, cancels its in-flight probes and
// closes the idle streams. In-flight dispatches are unaffected; their
// streams close as they end.
func (p *Pool) Close() {
	p.stopOnce.Do(func() {
		p.closed.Store(true)
		close(p.stop)
		p.loopStop()
		p.mu.Lock()
		remotes := append([]*Remote(nil), p.remotes...)
		p.mu.Unlock()
		for _, r := range remotes {
			r.mu.Lock()
			r.dropStreams()
			r.mu.Unlock()
		}
	})
}

// RemoteStats is one listed worker in PoolStats.
type RemoteStats struct {
	URL string `json:"url"`
	// State is derived from the failure counts (alive|suspect|probing|
	// dead, Pool.label); Healthy reports the worker in rotation.
	State    string `json:"state"`
	Healthy  bool   `json:"healthy"`
	LastErr  string `json:"last_err,omitempty"`
	Shards   uint64 `json:"shards"`
	Failures uint64 `json:"failures"`
	Problems int    `json:"problems"`
}

// FleetStats aggregates the failure detector's verdicts (DESIGN.md
// §13): the /metrics shard.fleet block.
type FleetStats struct {
	// Suspect/Dead count remotes per state label (suspect includes
	// probing).
	Suspect int `json:"suspect"`
	Dead    int `json:"dead"`
	// RejoinCount counts probe recoveries back into rotation.
	RejoinCount uint64 `json:"rejoin_count"`
}

// PoolStats is the pool snapshot the coordinator daemon reports under
// /metrics ("worker-pool depth": Workers listed, Healthy in rotation).
type PoolStats struct {
	Workers         int           `json:"workers"`
	Healthy         int           `json:"healthy"`
	Redispatches    uint64        `json:"redispatches"`
	LocalFallbacks  uint64        `json:"local_fallbacks"`
	SpeculativeHits uint64        `json:"speculative_hits"`
	BytesTx         uint64        `json:"bytes_tx"`
	BytesRx         uint64        `json:"bytes_rx"`
	Fleet           FleetStats    `json:"fleet"`
	Remotes         []RemoteStats `json:"remotes"`
}

// Snapshot reports the pool's worker states and dispatch counters.
func (p *Pool) Snapshot() PoolStats {
	p.mu.Lock()
	remotes := append([]*Remote(nil), p.remotes...)
	p.mu.Unlock()
	st := PoolStats{
		Workers:         len(remotes),
		Redispatches:    p.redispatches.Load(),
		LocalFallbacks:  p.localFallbacks.Load(),
		SpeculativeHits: p.speculativeHits.Load(),
		BytesTx:         p.bytesTx.Load(),
		BytesRx:         p.bytesRx.Load(),
	}
	st.Fleet.RejoinCount = p.rejoins.Load()
	for _, r := range remotes {
		r.mu.Lock()
		rs := RemoteStats{
			URL:      r.url,
			State:    p.label(r),
			Healthy:  r.inRotation,
			LastErr:  r.lastErr,
			Problems: r.acks.Stats().Entries,
		}
		r.mu.Unlock()
		switch rs.State {
		case "suspect", "probing":
			st.Fleet.Suspect++
		case "dead":
			st.Fleet.Dead++
		}
		rs.Shards = r.shards.Load()
		rs.Failures = r.failures.Load()
		if rs.Healthy {
			st.Healthy++
		}
		st.Remotes = append(st.Remotes, rs)
	}
	return st
}

// ProblemBlob is a problem's binary upload frame, encoded once, with
// its content address. Uploading the same blob to every worker (and
// re-uploading after worker restarts) reuses the bytes.
type ProblemBlob struct {
	Key  diffusion.Digest
	body []byte
}

// NewProblemBlob encodes a problem's upload frame and content address.
func NewProblemBlob(p *diffusion.Problem) *ProblemBlob {
	return &ProblemBlob{Key: p.ContentDigest(), body: EncodeProblem(p).AppendBinary(nil)}
}

// maxFrames bounds the pool's upload-frame memo (blobFor).
const maxFrames = 4

// blobFor memoizes NewProblemBlob per content key, which costs a
// dozen words over a warm substrate (Problem.ContentDigest). A solver
// run creates two estimators (MC and MCSI) over one problem, and a
// daemon clones a problem per request; the memo makes them all share
// one encoding, built once. It holds no problem, and it is bounded: a
// small LRU window suffices.
func (p *Pool) blobFor(prob *diffusion.Problem) *ProblemBlob {
	b, _ := p.frames.Do(digestKey(prob.ContentDigest()), nil, func() (*ProblemBlob, error) {
		return NewProblemBlob(prob), nil
	})
	return b
}

// Pooled scratch for request frames the coordinator encodes and frames
// a worker reads. Buffers above recycleMax are dropped instead of
// pooled so one huge grid does not pin its footprint forever.
const recycleMax = 4 << 20

var scratchPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getScratch() *[]byte { return scratchPool.Get().(*[]byte) }

func putScratch(b *[]byte, used []byte) {
	// keep a grown backing array for reuse, unless it ballooned
	if cap(used) > cap(*b) {
		*b = used[:0]
	}
	if cap(*b) > recycleMax {
		return
	}
	scratchPool.Put(b)
}

// upload sends blob to r and records the acknowledgement, verifying
// the worker-computed content address against the local one.
func (p *Pool) upload(ctx context.Context, r *Remote, blob *ProblemBlob) error {
	s, err := p.takeStream(ctx, r)
	if err != nil {
		return err
	}
	err = p.send(ctx, s, blob.body)
	var key diffusion.Digest
	if err == nil {
		var reply []byte
		if reply, err = p.recv(ctx, s); err == nil {
			if key, err = decodeAck(reply); err != nil {
				err = fmt.Errorf("shard: decode upload ack: %w", err)
			}
		}
	}
	p.release(r, s, err)
	if err != nil {
		return err
	}
	if key != blob.Key {
		// the worker decoded different content than we encoded — a
		// build-skew bug, not a transient fault; surface it loudly
		return &shardError{code: CodeHashMismatch,
			msg: fmt.Sprintf("worker hashed %s, coordinator %s", key, blob.Key)}
	}
	r.acks.Put(digestKey(blob.Key), struct{}{})
	return nil
}

// call is one estimate request to one worker, from its write to its
// reply: the shard_rpc span of its attempt chain, its frame and the
// stream it is in flight on.
type call struct {
	r       *Remote
	blob    *ProblemBlob
	sp      *obs.Span
	scratch *[]byte
	frame   []byte
	s       *stream // nil: not in flight (err says why)
	start   time.Time
	err     error
}

// begin encodes req and writes it to r, first uploading the problem if
// r has not acknowledged it. Its failure is the call's err, reported
// by await.
func (p *Pool) begin(ctx context.Context, r *Remote, blob *ProblemBlob, req *EstimateRequest) *call {
	r.inflight.Add(1)
	// one span per RPC attempt chain, joined to the batch span riding
	// ctx; nil when untraced. req is shared across failover and
	// speculative dispatch, so the trace ids go on a private copy.
	c := &call{r: r, blob: blob, sp: obs.StartSpan(ctx, "shard_rpc"), scratch: getScratch()}
	c.sp.SetAttr("worker", r.url)
	c.sp.SetAttrInt("lo", int64(req.Lo))
	c.sp.SetAttrInt("hi", int64(req.Hi))
	use := *req
	if c.sp != nil {
		use.TraceID = c.sp.TraceID()
		use.SpanID = c.sp.SpanID()
	}
	c.frame = use.AppendBinary((*c.scratch)[:0])
	if !r.knowsProblem(blob.Key) {
		c.err = p.upload(ctx, r, blob)
	}
	if c.err == nil {
		c.write(ctx, p)
	}
	return c
}

// write puts the call's frame on a stream to its worker.
func (c *call) write(ctx context.Context, p *Pool) {
	c.start = time.Now()
	if c.s, c.err = p.takeStream(ctx, c.r); c.err != nil {
		return
	}
	if c.err = p.send(ctx, c.s, c.frame); c.err != nil {
		c.s.close()
		c.s = nil
	}
}

// await reads the call's reply and ends it. An unknown_problem answer
// (the worker evicted the problem or restarted) is retried once after
// a re-upload.
func (p *Pool) await(ctx context.Context, c *call) (*EstimateResponse, error) {
	defer func() {
		c.r.inflight.Add(-1)
		putScratch(c.scratch, c.frame)
		c.sp.End()
	}()
	for attempt := 0; ; attempt++ {
		if c.err != nil {
			c.sp.SetAttr("error", c.err.Error())
			return nil, c.err
		}
		reply, err := p.recv(ctx, c.s)
		var resp EstimateResponse
		if err == nil {
			if resp, err = DecodeEstimateResponseBinary(reply); err != nil {
				err = fmt.Errorf("shard: decode estimate response: %w", err)
			}
		}
		p.release(c.r, c.s, err)
		c.s = nil
		if err == nil {
			c.r.shards.Add(1)
			c.r.dispatchOK()
			p.rpcHist.Observe(time.Since(c.start))
			c.sp.Adopt(resp.Spans)
			return &resp, nil
		}
		c.err = err
		var se *shardError
		if attempt == 0 && errors.As(err, &se) && se.code == CodeUnknownProblem {
			// the worker evicted or lost the problem (e.g. restart):
			// re-upload once, which renews the acknowledgement
			if c.err = p.upload(ctx, c.r, c.blob); c.err == nil {
				c.write(ctx, p)
			}
		}
	}
}

// runShard computes one sample range, trying the preferred worker
// first — with first, the call the batch already wrote to it, when
// there is one — and failing over across the rest of the given
// rotation. A worker failure marks it unhealthy (a health probe
// restores it later); cancellation aborts without blaming any worker.
// It returns nil when every worker failed — the caller falls back to
// computing the range locally.
func (p *Pool) runShard(ctx context.Context, remotes []*Remote, preferred int, blob *ProblemBlob, req *EstimateRequest, items int, first *call) [][]diffusion.SampleResult {
	n := len(remotes)
	for i := 0; i < n; i++ {
		r := remotes[(preferred+i)%n]
		var rows [][]diffusion.SampleResult
		switch {
		case i == 0 && first != nil:
			rows = p.settle(ctx, first, req, items)
		case ctx.Err() != nil:
			return nil
		case !r.dispatchable():
			continue
		default:
			rows = p.tryShardOn(ctx, r, blob, req, items)
		}
		if rows != nil {
			return rows
		}
		if ctx.Err() != nil {
			return nil
		}
		if i < n-1 {
			p.redispatches.Add(1)
		}
	}
	return nil
}

// tryShardOn runs one shard request against one specific worker,
// marking it failed (and returning nil) on any non-cancellation error.
// The speculative re-dispatch path uses it directly: a duplicate is a
// single extra attempt on a chosen idle worker, never a failover chain
// of its own — the primary dispatch remains the range's guarantor.
func (p *Pool) tryShardOn(ctx context.Context, r *Remote, blob *ProblemBlob, req *EstimateRequest, items int) [][]diffusion.SampleResult {
	return p.settle(ctx, p.begin(ctx, r, blob, req), req, items)
}

// settle awaits c and validates its rows, marking its worker failed
// (and returning nil) on any non-cancellation error.
func (p *Pool) settle(ctx context.Context, c *call, req *EstimateRequest, items int) [][]diffusion.SampleResult {
	resp, err := p.await(ctx, c)
	if err == nil {
		err = validateSamples(resp.Samples, req, items)
		if err == nil {
			return resp.Samples
		}
	}
	if ctx.Err() != nil {
		return nil // cancelled mid-request: not the worker's fault
	}
	p.markFailed(c.r, err)
	p.logger.Warn("shard worker failed", "worker", c.r.url, "err", err)
	return nil
}

// validateSamples sanity-checks a worker response shape so a buggy or
// hostile worker cannot panic the coordinator's reduction.
func validateSamples(samples [][]diffusion.SampleResult, req *EstimateRequest, items int) error {
	if len(samples) != len(req.Groups) {
		return fmt.Errorf("shard: %d sample rows for %d groups", len(samples), len(req.Groups))
	}
	for g, row := range samples {
		if err := diffusion.ValidateSampleRow(row, req.Hi-req.Lo, items); err != nil {
			return fmt.Errorf("shard: group %d: %w", g, err)
		}
	}
	return nil
}
