package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"imdpp/internal/diffusion"
	"imdpp/internal/obs"
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

	mu      sync.Mutex
	remotes []*Remote
	blobs   map[diffusion.Digest]*ProblemBlob // bounded memo, see blobFor
	blobLRU []diffusion.Digest

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
	// specMin), checked every specTick.
	specFactor float64
	specMin    time.Duration
	specTick   time.Duration

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

	mu       sync.Mutex
	lastErr  string
	problems map[diffusion.Digest]bool // uploads acknowledged by this worker

	// Lifecycle bookkeeping (guarded by mu; see lifecycle.go).
	inRotation bool          // a probe answered since the last failure
	probeFails int           // failed probes since the worker left rotation
	strikes    int           // consecutive failed dispatches
	nextProbe  time.Time     // when the failure detector probes next (zero: never probed)
	lastHeard  time.Time     // last successful probe
	probeDone  chan struct{} // the in-flight probe's verdict (nil: none)

	shards   atomic.Uint64
	failures atomic.Uint64
	inflight atomic.Int32 // shard RPCs currently outstanding
}

// knowsProblem reports whether this worker acknowledged an upload of
// key.
func (r *Remote) knowsProblem(key diffusion.Digest) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.problems[key]
}

func (r *Remote) setProblem(key diffusion.Digest, known bool) {
	r.mu.Lock()
	if known {
		r.problems[key] = true
	} else {
		delete(r.problems, key)
	}
	r.mu.Unlock()
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
// client nil selects a default with a 10-minute per-request ceiling —
// a liveness guard so a worker that accepts a shard and then hangs
// forever is eventually classified as failed and its range
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
		blobs:      make(map[diffusion.Digest]*ProblemBlob),
		stop:       make(chan struct{}),
		specFactor: 2.0,
		specMin:    25 * time.Millisecond,
		specTick:   5 * time.Millisecond,

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

// Close stops the failure detector and cancels its in-flight probes.
// In-flight dispatches are unaffected.
func (p *Pool) Close() {
	p.stopOnce.Do(func() {
		close(p.stop)
		p.loopStop()
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
			Problems: len(r.problems),
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

// blobFor memoizes NewProblemBlob per content key, which costs a
// dozen words over a warm substrate (Problem.ContentDigest). A solver
// run creates two estimators (MC and MCSI) over one problem, and a
// daemon clones a problem per request; the memo makes them all share
// one encoding. It holds no problem, and it is bounded: a small FIFO
// window suffices.
func (p *Pool) blobFor(prob *diffusion.Problem) *ProblemBlob {
	key := prob.ContentDigest()
	p.mu.Lock()
	if b, ok := p.blobs[key]; ok {
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	b := NewProblemBlob(prob)
	p.mu.Lock()
	if _, ok := p.blobs[key]; !ok {
		p.blobs[key] = b
		p.blobLRU = append(p.blobLRU, key)
		for len(p.blobLRU) > 4 {
			delete(p.blobs, p.blobLRU[0])
			p.blobLRU = p.blobLRU[1:]
		}
	}
	p.mu.Unlock()
	return b
}

// shardError is a dispatch failure with the worker's typed code.
type shardError struct {
	status int
	code   string
	msg    string
}

func (e *shardError) Error() string {
	return fmt.Sprintf("shard rpc: status %d code %q: %s", e.status, e.code, e.msg)
}

// Pooled scratch for RPC bodies (requests encoded, responses read).
// Buffers above recycleMax are dropped instead of pooled so one huge
// grid does not pin its footprint forever.
const recycleMax = 4 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b == nil || b.Cap() > recycleMax {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

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

// post sends one binary frame and returns the full response body in a
// pooled buffer the caller must release with putBuf. The body is
// always drained to EOF — on error paths too — so the transport can
// reuse the connection instead of tearing it down and re-dialling
// under retry; tx/rx bytes feed the pool counters.
func (p *Pool) post(ctx context.Context, url string, body []byte) (*bytes.Buffer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	p.bytesTx.Add(uint64(len(body)))
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	// the largest legal response is one max-payload frame plus its
	// header; reading one byte past that distinguishes "right at the
	// bound" from "too large" without ever buffering more
	const maxResp = maxFramePayload + frameHeaderLen
	buf := getBuf()
	n, readErr := io.Copy(buf, io.LimitReader(resp.Body, maxResp+1))
	if n <= maxResp {
		// drain the (empty or tiny) remainder so the transport reuses
		// the connection; an oversized body skips this — discarding the
		// connection is cheaper than swallowing gigabytes
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	}
	resp.Body.Close()
	p.bytesRx.Add(uint64(n))
	if readErr != nil {
		putBuf(buf)
		return nil, readErr
	}
	if n > maxResp {
		putBuf(buf)
		return nil, fmt.Errorf("shard: response exceeds the %d-byte frame bound", maxResp)
	}
	if resp.StatusCode != http.StatusOK {
		var eb ErrorBody
		data := buf.Bytes()
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		_ = json.Unmarshal(data, &eb)
		if eb.Error == "" {
			eb.Error = strings.TrimSpace(string(data))
		}
		putBuf(buf)
		return nil, &shardError{status: resp.StatusCode, code: eb.Code, msg: eb.Error}
	}
	return buf, nil
}

// ensureProblem uploads blob to r unless r already acknowledged it,
// verifying the worker-computed content address against the local one.
func (p *Pool) ensureProblem(ctx context.Context, r *Remote, blob *ProblemBlob) error {
	if r.knowsProblem(blob.Key) {
		return nil
	}
	buf, err := p.post(ctx, r.url+PathProblems, blob.body)
	if err != nil {
		return err
	}
	var ack UploadResponse
	err = json.Unmarshal(buf.Bytes(), &ack)
	putBuf(buf)
	if err != nil {
		return fmt.Errorf("shard: decode upload ack: %w", err)
	}
	if ack.Hash != blob.Key.String() {
		// the worker decoded different content than we encoded — a
		// build-skew bug, not a transient fault; surface it loudly
		return &shardError{status: http.StatusConflict, code: CodeHashMismatch,
			msg: fmt.Sprintf("worker hashed %s, coordinator %s", ack.Hash, blob.Key)}
	}
	r.setProblem(blob.Key, true)
	return nil
}

// estimateOn runs one shard request on one worker, handling the
// lazy-upload and evicted/restarted-worker (unknown_problem) paths.
func (p *Pool) estimateOn(ctx context.Context, r *Remote, blob *ProblemBlob, req *EstimateRequest) (*EstimateResponse, error) {
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	// one span per RPC attempt chain, joined to the batch span riding
	// ctx; nil when untraced. req is shared across failover and
	// speculative dispatch, so the trace ids go on a private copy.
	sp := obs.StartSpan(ctx, "shard_rpc")
	defer sp.End()
	sp.SetAttr("worker", r.url)
	sp.SetAttrInt("lo", int64(req.Lo))
	sp.SetAttrInt("hi", int64(req.Hi))
	use := *req
	if sp != nil {
		use.TraceID = sp.TraceID()
		use.SpanID = sp.SpanID()
	}
	scratch := getScratch()
	body := use.AppendBinary((*scratch)[:0])
	defer putScratch(scratch, body)
	for attempt := 0; ; attempt++ {
		if err := p.ensureProblem(ctx, r, blob); err != nil {
			return nil, err
		}
		start := time.Now()
		buf, err := p.post(ctx, r.url+PathEstimate, body)
		if err == nil {
			resp, err := DecodeEstimateResponseBinary(buf.Bytes())
			putBuf(buf)
			if err != nil {
				return nil, fmt.Errorf("shard: decode estimate response: %w", err)
			}
			r.shards.Add(1)
			r.dispatchOK()
			p.rpcHist.Observe(time.Since(start))
			sp.Adopt(resp.Spans)
			return &resp, nil
		}
		var se *shardError
		if attempt == 0 && errors.As(err, &se) && se.code == CodeUnknownProblem {
			// the worker evicted or lost the problem (e.g. restart):
			// forget the acknowledgement and re-upload once
			r.setProblem(blob.Key, false)
			continue
		}
		sp.SetAttr("error", err.Error())
		return nil, err
	}
}

// runShard computes one sample range, trying the preferred worker
// first and failing over across the rest of the given rotation. A
// worker failure marks it unhealthy (a health probe restores it
// later); cancellation aborts without blaming any worker. It returns
// nil when every worker failed — the caller falls back to computing
// the range locally.
func (p *Pool) runShard(ctx context.Context, remotes []*Remote, preferred int, blob *ProblemBlob, req *EstimateRequest, items int) [][]diffusion.SampleResult {
	n := len(remotes)
	for i := 0; i < n; i++ {
		r := remotes[(preferred+i)%n]
		if ctx.Err() != nil {
			return nil
		}
		if !r.dispatchable() {
			continue
		}
		rows := p.tryShardOn(ctx, r, blob, req, items)
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
	resp, err := p.estimateOn(ctx, r, blob, req)
	if err == nil {
		err = validateSamples(resp.Samples, req, items)
		if err == nil {
			return resp.Samples
		}
	}
	if ctx.Err() != nil {
		return nil // cancelled mid-request: not the worker's fault
	}
	p.markFailed(r, err)
	p.logger.Warn("shard worker failed", "worker", r.url, "err", err)
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
