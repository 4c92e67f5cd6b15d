package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"imdpp/internal/castore"
	"imdpp/internal/diffusion"
	"imdpp/internal/obs"
)

// The worker's two bounds. maxProblems caps the content-addressed
// problem store: the least recently used problem is evicted beyond
// it, and coordinators transparently re-upload an evicted problem on
// the next unknown_problem error frame. maxUnits caps one estimate request's
// total work — groups × sample-range span, each unit one campaign
// simulation — so a buggy or hostile coordinator cannot OOM or pin the
// worker with one request; requests beyond it get a typed bad_request.
const (
	maxProblems = 8
	maxUnits    = 1 << 24
)

// WorkerConfig sizes a shard worker. The zero value selects defaults.
type WorkerConfig struct {
	// Workers bounds estimator goroutines per shard request
	// (0 → GOMAXPROCS).
	Workers int
	// Tracer, when non-nil, lets the worker join traced estimate
	// requests (DESIGN.md §11): its spans are recorded locally and
	// shipped back in the response for the coordinator to adopt.
	// Untraced requests — and a nil Tracer — change nothing.
	Tracer *obs.Tracer
}

// Worker is the server side of the estimator RPC: a content-addressed
// store of decoded problems plus the frame streams that simulate shard
// sample ranges. It caches no sample grids: the coordinator does, in
// front of the whole fleet (DESIGN.md §10), so a repeated batch never
// reaches a worker. Each stream runs its own batch-engine estimator per
// request, so streams against the same problem run concurrently; their
// simulation states come warm from the decoded problem's substrate
// (DESIGN.md §5), which dies with the problem once it is evicted or
// dropped.
type Worker struct {
	cfg WorkerConfig

	// problems is the decoded problem store by content key
	// (digestKey); DropProblems swaps in an empty one.
	problems atomic.Pointer[castore.Store[*diffusion.Problem]]

	// The open streams (guarded by smu). Shutdown sets closing, which
	// refuses new streams and ends each open one after its reply.
	smu     sync.Mutex
	streams map[*workerStream]struct{}
	closing bool
	live    sync.WaitGroup // one per open stream

	shardsServed atomic.Uint64
	samplesDone  atomic.Uint64
}

// NewWorker creates a shard worker.
func NewWorker(cfg WorkerConfig) *Worker {
	w := &Worker{cfg: cfg, streams: make(map[*workerStream]struct{})}
	w.DropProblems()
	return w
}

// Mount registers the shard RPC's stream endpoint on mux, and GET
// /healthz: the failure detector's probe, answered with the frame
// version this worker decodes.
func (w *Worker) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET "+PathEstimate, w.handleStream)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		writeShardJSON(rw, http.StatusOK, healthBody{OK: true, CodecVersion: frameVersion})
	})
}

// Shutdown ends the worker's streams, which http.Server.Shutdown does
// not wait for: they are hijacked connections. New streams are
// refused, idle ones closed at once, and a stream running a request
// writes its reply first and then closes. Shutdown returns once every
// stream has ended; if ctx ends first, it closes the rest, which
// preempts their engines, and returns ctx.Err().
func (w *Worker) Shutdown(ctx context.Context) error {
	w.smu.Lock()
	w.closing = true
	for ws := range w.streams {
		if !ws.busy {
			ws.conn.Close()
		}
	}
	w.smu.Unlock()
	ended := make(chan struct{})
	go func() {
		w.live.Wait()
		close(ended)
	}()
	select {
	case <-ended:
		return nil
	case <-ctx.Done():
	}
	w.smu.Lock()
	for ws := range w.streams {
		ws.conn.Close()
	}
	w.smu.Unlock()
	<-ended
	return ctx.Err()
}

// WorkerStats is the worker-side counter snapshot, reported by the
// worker daemon's /metrics.
type WorkerStats struct {
	ProblemsCached   int    `json:"problems_cached"`
	ShardsServed     uint64 `json:"shards_served"`
	SamplesSimulated uint64 `json:"samples_simulated"`
}

// Stats snapshots the worker counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		ProblemsCached:   w.problems.Load().Stats().Entries,
		ShardsServed:     w.shardsServed.Load(),
		SamplesSimulated: w.samplesDone.Load(),
	}
}

// DropProblems empties the problem store — the observable effect of a
// worker restart. Coordinators recover through the unknown_problem
// re-upload path; tests use it to exercise exactly that.
func (w *Worker) DropProblems() {
	w.problems.Store(castore.New(castore.Config[*diffusion.Problem]{Budget: maxProblems}))
}

// workerStream is one upgraded connection: request frames in, one
// reply frame out per request, in order.
type workerStream struct {
	w    *Worker
	conn net.Conn
	busy bool // a request is being answered (guarded by w.smu)
}

// handleStream upgrades the connection to a frame stream and serves it
// until the coordinator closes it, a frame breaks the framing, or
// Shutdown.
func (w *Worker) handleStream(rw http.ResponseWriter, r *http.Request) {
	if !headerHasToken(r.Header, "Connection", "upgrade") || !headerHasToken(r.Header, "Upgrade", upgradeToken) {
		rw.Header().Set("Connection", "Upgrade")
		rw.Header().Set("Upgrade", upgradeToken)
		http.Error(rw, "shard rpc: upgrade to "+upgradeToken+" required", http.StatusUpgradeRequired)
		return
	}
	conn, brw, err := http.NewResponseController(rw).Hijack()
	if err != nil {
		http.Error(rw, "shard rpc: "+err.Error(), http.StatusInternalServerError)
		return
	}
	_ = conn.SetDeadline(time.Time{})
	ws := &workerStream{w: w, conn: conn}
	w.smu.Lock()
	if w.closing { // Shutdown began: no new streams
		w.smu.Unlock()
		conn.Close()
		return
	}
	w.streams[ws] = struct{}{}
	w.live.Add(1)
	w.smu.Unlock()
	defer func() {
		w.smu.Lock()
		delete(w.streams, ws)
		w.smu.Unlock()
		w.live.Done()
	}()
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+upgradeToken+"\r\n\r\n"); err != nil {
		conn.Close()
		return
	}
	ws.serve(brw.Reader)
}

// headerHasToken reports whether the comma-separated header key lists
// token, case-insensitively.
func headerHasToken(h http.Header, key, token string) bool {
	for _, v := range h.Values(key) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// inFrame is one request frame read ahead of the stream's loop, in
// pooled scratch the loop releases.
type inFrame struct {
	scratch *[]byte
	data    []byte
}

// serve answers request frames one at a time. A read-ahead goroutine
// owns the reading: while a request runs, its pending read is what
// sees the coordinator go away, and EOF or any read error cancels ctx,
// which preempts the running engine within about one campaign.
func (ws *workerStream) serve(br *bufio.Reader) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	frames := make(chan inFrame)
	go func() {
		defer close(frames)
		defer cancel()
		for {
			scratch := getScratch()
			data, err := readFrame(br, (*scratch)[:0])
			if err != nil {
				putScratch(scratch, data)
				return
			}
			select {
			case frames <- inFrame{scratch, data}:
			case <-ctx.Done():
				putScratch(scratch, data)
				return
			}
		}
	}()
	defer func() {
		ws.conn.Close()
		for f := range frames { // the reader ends on the closed conn
			putScratch(f.scratch, f.data)
		}
	}()
	out := getScratch()
	defer func() { putScratch(out, *out) }()
	for f := range frames {
		if !ws.begin() {
			putScratch(f.scratch, f.data)
			return
		}
		reply, ok := ws.w.answer(ctx, f.data, (*out)[:0])
		putScratch(f.scratch, f.data)
		*out = reply[:0]
		if !ok || ctx.Err() != nil {
			return // another kind of frame, or the coordinator is gone
		}
		if _, err := ws.conn.Write(reply); err != nil {
			return
		}
		if !ws.end() {
			return
		}
	}
}

// begin marks the stream busy, or reports false once Shutdown began.
func (ws *workerStream) begin() bool {
	ws.w.smu.Lock()
	defer ws.w.smu.Unlock()
	ws.busy = !ws.w.closing
	return ws.busy
}

// end marks the stream idle after its reply, or reports false once
// Shutdown began.
func (ws *workerStream) end() bool {
	ws.w.smu.Lock()
	defer ws.w.smu.Unlock()
	ws.busy = false
	return !ws.w.closing
}

// answer appends the reply to one request frame to b. ok is false for
// a frame of a kind no coordinator sends: the stream must close.
func (w *Worker) answer(ctx context.Context, frame, b []byte) (reply []byte, ok bool) {
	switch frame[4] {
	case frameProblem:
		key, err := w.upload(frame)
		if err != nil {
			return appendError(b, CodeBadRequest, err), true
		}
		return appendAck(b, key), true
	case frameEstimateReq:
		resp, code, err := w.estimate(ctx, frame)
		if err != nil {
			return appendError(b, code, err), true
		}
		return resp.AppendBinary(b), true
	}
	return b, false
}

// upload decodes a problem upload frame, verifies its content address
// by recomputation, and stores it under that key. A problem already
// stored is kept, so a re-upload keeps its warm substrate.
func (w *Worker) upload(frame []byte) (diffusion.Digest, error) {
	u, err := DecodeProblemUploadBinary(frame)
	if err != nil {
		return diffusion.Digest{}, fmt.Errorf("bad problem upload: %w", err)
	}
	p, err := DecodeProblem(u)
	if err != nil {
		return diffusion.Digest{}, err
	}
	key := p.ContentDigest()
	_, _ = w.problems.Load().Do(digestKey(key), nil, func() (*diffusion.Problem, error) { return p, nil }) // this build cannot fail
	return key, nil
}

// estimate simulates samples [Lo,Hi) of every group of an estimate
// request frame and returns their raw outcomes, or a typed refusal.
// The estimator is bound to ctx, so a coordinator closing the stream
// (cancellation, failover timeout) preempts the simulation within
// about one campaign; the partial result is then garbage.
func (w *Worker) estimate(ctx context.Context, frame []byte) (*EstimateResponse, string, error) {
	req, err := DecodeEstimateRequestBinary(frame)
	if err != nil {
		return nil, CodeBadRequest, fmt.Errorf("bad estimate request: %w", err)
	}
	p, _ := w.problems.Load().Get(digestKey(req.Problem))
	if p == nil {
		return nil, CodeUnknownProblem, fmt.Errorf("problem %s not loaded on this worker", req.Problem)
	}
	if req.Lo < 0 || req.Hi <= req.Lo {
		return nil, CodeBadRequest, fmt.Errorf("bad sample range [%d,%d)", req.Lo, req.Hi)
	}
	span := req.Hi - req.Lo
	groups := len(req.Groups)
	if groups == 0 {
		groups = 1
	}
	if span > maxUnits/groups {
		return nil, CodeBadRequest, fmt.Errorf("request of %d groups × %d samples exceeds the worker's %d-unit bound", len(req.Groups), span, maxUnits)
	}
	for g, seeds := range req.Groups {
		for _, s := range seeds {
			if s.User < 0 || s.User >= p.NumUsers() || s.Item < 0 || s.Item >= p.NumItems() || s.T < 1 || s.T > p.T {
				return nil, CodeBadRequest, fmt.Errorf("group %d: seed (%d,%d,%d) out of range", g, s.User, s.Item, s.T)
			}
		}
	}
	market, err := usersToMask(req.Market, p.NumUsers())
	if err != nil {
		return nil, CodeBadRequest, err
	}
	var masks [][]bool
	if req.PerGroupMasks != nil {
		if len(req.PerGroupMasks) != len(req.Groups) {
			return nil, CodeBadRequest, fmt.Errorf("%d masks for %d groups", len(req.PerGroupMasks), len(req.Groups))
		}
		masks = make([][]bool, len(req.PerGroupMasks))
		for g, users := range req.PerGroupMasks {
			if masks[g], err = usersToMask(users, p.NumUsers()); err != nil {
				return nil, CodeBadRequest, err
			}
		}
	}

	// join the coordinator's trace when the request carries one and a
	// tracer is configured; StartRemote returns nil otherwise and every
	// span call below is a no-op
	wspan := w.cfg.Tracer.StartRemote(req.TraceID, req.SpanID, "worker_estimate")
	wspan.SetAttrInt("groups", int64(len(req.Groups)))
	wspan.SetAttrInt("lo", int64(req.Lo))
	wspan.SetAttrInt("hi", int64(req.Hi))

	est := diffusion.NewEstimator(p, 1, req.Seed)
	est.Workers = w.cfg.Workers
	est.Bind(obs.ContextWithSpan(ctx, wspan))
	samples := est.RunBatchSamples(req.Groups, market, masks, req.WithPi, req.Lo, req.Hi)
	if ctx.Err() != nil {
		wspan.End()
		return nil, "", ctx.Err()
	}
	w.shardsServed.Add(1)
	w.samplesDone.Add(uint64(len(req.Groups) * span))
	return &EstimateResponse{Samples: samples, Spans: wspan.EndCollect()}, "", nil
}

func writeShardJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}
