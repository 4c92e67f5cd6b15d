package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sync"
	"sync/atomic"

	"imdpp/internal/diffusion"
	"imdpp/internal/gridcache"
	"imdpp/internal/obs"
	"imdpp/internal/service"
)

// The worker's two bounds. maxProblems caps the content-addressed
// problem store: the oldest problem is evicted beyond it, and
// coordinators transparently re-upload an evicted problem on the next
// unknown_problem response. maxUnits caps one estimate request's total
// work — groups × sample-range span, each unit one campaign simulation
// — so a buggy or hostile coordinator cannot OOM or pin the worker
// with one request; requests beyond it are rejected with a typed
// bad_request.
const (
	maxProblems = 8
	maxUnits    = 1 << 24
)

// WorkerConfig sizes a shard worker. The zero value selects defaults.
type WorkerConfig struct {
	// Workers bounds estimator goroutines per shard request
	// (0 → GOMAXPROCS).
	Workers int
	// Grid, when non-nil, memoizes raw sample grids across estimate
	// requests (DESIGN.md §10): coordinator re-dispatch, speculative
	// duplicates and repeated CELF waves over the same (problem, seed,
	// range, group) coordinates are served from the cache instead of
	// re-simulated, bit-identically. Workers host their own instance —
	// grids are cached where they are computed, never shipped warm.
	// The key includes the sample range [lo,hi); the pool's even split
	// cuts the same ranges for a fleet of a given size, so reuse also
	// spans batches and solves.
	Grid *gridcache.Cache
	// Tracer, when non-nil, lets the worker join traced estimate
	// requests (DESIGN.md §11): its spans are recorded locally and
	// shipped back in the response for the coordinator to adopt.
	// Untraced requests — and a nil Tracer — change nothing.
	Tracer *obs.Tracer
}

// Worker is the server side of the estimator RPC: a content-addressed
// store of decoded problems plus the estimate handler that simulates
// one shard's sample range. Each request runs its own batch-engine
// estimator, so requests against the same problem run concurrently;
// their simulation states come warm from the problem's state pool
// (DESIGN.md §5), which dies with the problem once it is evicted or
// dropped.
type Worker struct {
	cfg WorkerConfig

	mu       sync.Mutex
	problems map[service.Key]*workerProblem
	order    []service.Key // insertion order, oldest first, for eviction

	// Drain state (DESIGN.md §13): once draining, new RPCs are rejected
	// with a typed draining response while in-flight ones finish;
	// drained closes when the last one does.
	lifeMu        sync.Mutex
	draining      bool
	inflightN     int
	drained       chan struct{}
	drainedClosed bool

	shardsServed atomic.Uint64
	samplesDone  atomic.Uint64
}

type workerProblem struct {
	p    *diffusion.Problem
	grid diffusion.GridCache // the worker's grid-cache view of p, nil without a cache
}

// NewWorker creates a shard worker.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{
		cfg:      cfg,
		problems: make(map[service.Key]*workerProblem),
		drained:  make(chan struct{}),
	}
}

// beginRequest admits one shard RPC unless the worker is draining.
func (w *Worker) beginRequest() bool {
	w.lifeMu.Lock()
	defer w.lifeMu.Unlock()
	if w.draining {
		return false
	}
	w.inflightN++
	return true
}

func (w *Worker) endRequest() {
	w.lifeMu.Lock()
	w.inflightN--
	if w.draining && w.inflightN == 0 && !w.drainedClosed {
		w.drainedClosed = true
		close(w.drained)
	}
	w.lifeMu.Unlock()
}

// BeginDrain puts the worker into drain (DESIGN.md §13): in-flight
// shard RPCs run to completion, new ones are rejected with the typed
// draining response (the coordinator re-plans those ranges elsewhere
// without a strike — bit-identically, §3/§7). The returned channel
// closes when the last in-flight request finishes; it is closed
// already if the worker is idle. Draining is one-way and idempotent.
func (w *Worker) BeginDrain() <-chan struct{} {
	w.lifeMu.Lock()
	w.draining = true
	if w.inflightN == 0 && !w.drainedClosed {
		w.drainedClosed = true
		close(w.drained)
	}
	w.lifeMu.Unlock()
	return w.drained
}

// Draining reports whether BeginDrain was called.
func (w *Worker) Draining() bool {
	w.lifeMu.Lock()
	defer w.lifeMu.Unlock()
	return w.draining
}

// Mount registers the shard RPC endpoints on mux.
func (w *Worker) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathProblems, w.handleUpload)
	mux.HandleFunc("POST "+PathEstimate, w.handleEstimate)
}

// WorkerStats is the worker-side counter snapshot, reported by the
// worker daemon's /metrics.
type WorkerStats struct {
	ProblemsCached   int    `json:"problems_cached"`
	ShardsServed     uint64 `json:"shards_served"`
	SamplesSimulated uint64 `json:"samples_simulated"`
	Draining         bool   `json:"draining"`
	// Grid nests the worker's sample-grid cache counters, mirroring
	// the coordinator /metrics shape; nil without a cache.
	Grid *gridcache.Stats `json:"grid,omitempty"`
}

// Stats snapshots the worker counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	n := len(w.problems)
	w.mu.Unlock()
	st := WorkerStats{
		ProblemsCached:   n,
		ShardsServed:     w.shardsServed.Load(),
		SamplesSimulated: w.samplesDone.Load(),
		Draining:         w.Draining(),
	}
	if w.cfg.Grid != nil {
		g := w.cfg.Grid.Stats()
		st.Grid = &g
	}
	return st
}

// DropProblems empties the problem store — the observable effect of a
// worker restart. Coordinators recover through the unknown_problem
// re-upload path; tests use it to exercise exactly that.
func (w *Worker) DropProblems() {
	w.mu.Lock()
	w.problems = make(map[service.Key]*workerProblem)
	w.order = nil
	w.mu.Unlock()
}

// readFrame drains a binary-frame request body into a pooled buffer
// the caller must release with putBuf. A body of any other media type
// is refused 415, and one past the frame bound 400 (rather than being
// truncated into a confusing decode error); both carry the typed
// bad_request code, already written to rw when readFrame returns nil.
func readFrame(rw http.ResponseWriter, r *http.Request, what string) *bytes.Buffer {
	ct := r.Header.Get("Content-Type")
	if mt, _, _ := mime.ParseMediaType(ct); mt != ContentTypeBinary {
		writeShardError(rw, http.StatusUnsupportedMediaType, CodeBadRequest,
			fmt.Errorf("bad %s: content type %q, want %s", what, ct, ContentTypeBinary))
		return nil
	}
	const maxBody = maxFramePayload + frameHeaderLen
	buf := getBuf()
	n, err := io.Copy(buf, io.LimitReader(r.Body, maxBody+1))
	if err == nil && n > maxBody {
		err = fmt.Errorf("request body exceeds the %d-byte frame bound", maxBody)
	}
	if err != nil {
		putBuf(buf)
		writeShardError(rw, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad %s: %w", what, err))
		return nil
	}
	return buf
}

// handleUpload decodes a problem upload frame, verifies its content
// address by recomputation, and stores it under that key. The ack is
// JSON — a few dozen bytes, part of the typed-error protocol.
func (w *Worker) handleUpload(rw http.ResponseWriter, r *http.Request) {
	if !w.beginRequest() {
		writeShardError(rw, http.StatusServiceUnavailable, CodeDraining, errDraining)
		return
	}
	defer w.endRequest()
	body := readFrame(rw, r, "problem upload")
	if body == nil {
		return
	}
	u, err := DecodeProblemUploadBinary(body.Bytes())
	putBuf(body)
	if err != nil {
		writeShardError(rw, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad problem upload: %w", err))
		return
	}
	p, err := DecodeProblem(u)
	if err != nil {
		writeShardError(rw, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	key := service.HashProblem(p)
	wp := &workerProblem{p: p, grid: w.cfg.Grid.View(p)}

	w.mu.Lock()
	if _, ok := w.problems[key]; !ok {
		w.problems[key] = wp
		w.order = append(w.order, key)
		for len(w.order) > maxProblems {
			delete(w.problems, w.order[0])
			w.order = w.order[1:]
		}
	}
	w.mu.Unlock()
	writeShardJSON(rw, http.StatusOK, UploadResponse{Hash: key.String()})
}

// handleEstimate simulates samples [Lo,Hi) of every group and returns
// their raw outcomes as a binary frame. The estimator is bound to the
// request context, so a coordinator abandoning the request
// (cancellation, failover timeout) preempts the simulation within
// about one campaign.
func (w *Worker) handleEstimate(rw http.ResponseWriter, r *http.Request) {
	if !w.beginRequest() {
		writeShardError(rw, http.StatusServiceUnavailable, CodeDraining, errDraining)
		return
	}
	defer w.endRequest()
	body := readFrame(rw, r, "estimate request")
	if body == nil {
		return
	}
	req, err := DecodeEstimateRequestBinary(body.Bytes())
	putBuf(body)
	if err != nil {
		writeShardError(rw, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad estimate request: %w", err))
		return
	}
	key, err := service.ParseKey(req.Problem)
	if err != nil {
		writeShardError(rw, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	w.mu.Lock()
	wp := w.problems[key]
	w.mu.Unlock()
	if wp == nil {
		writeShardError(rw, http.StatusNotFound, CodeUnknownProblem,
			fmt.Errorf("problem %s not loaded on this worker", req.Problem))
		return
	}
	p := wp.p
	if req.Lo < 0 || req.Hi <= req.Lo {
		writeShardError(rw, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("bad sample range [%d,%d)", req.Lo, req.Hi))
		return
	}
	span := req.Hi - req.Lo
	groups := len(req.Groups)
	if groups == 0 {
		groups = 1
	}
	if span > maxUnits/groups {
		writeShardError(rw, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("request of %d groups × %d samples exceeds the worker's %d-unit bound", len(req.Groups), span, maxUnits))
		return
	}
	for g, seeds := range req.Groups {
		for _, s := range seeds {
			if s.User < 0 || s.User >= p.NumUsers() || s.Item < 0 || s.Item >= p.NumItems() || s.T < 1 || s.T > p.T {
				writeShardError(rw, http.StatusBadRequest, CodeBadRequest,
					fmt.Errorf("group %d: seed (%d,%d,%d) out of range", g, s.User, s.Item, s.T))
				return
			}
		}
	}
	market, err := usersToMask(req.Market, p.NumUsers())
	if err != nil {
		writeShardError(rw, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	var masks [][]bool
	if req.PerGroupMasks != nil {
		if len(req.PerGroupMasks) != len(req.Groups) {
			writeShardError(rw, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("%d masks for %d groups", len(req.PerGroupMasks), len(req.Groups)))
			return
		}
		masks = make([][]bool, len(req.PerGroupMasks))
		for g, users := range req.PerGroupMasks {
			if masks[g], err = usersToMask(users, p.NumUsers()); err != nil {
				writeShardError(rw, http.StatusBadRequest, CodeBadRequest, err)
				return
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
	ctx := obs.ContextWithSpan(r.Context(), wspan)

	est := diffusion.NewEstimator(p, 1, req.Seed)
	est.Workers = w.cfg.Workers
	est.Grid = wp.grid
	est.Bind(ctx)
	samples := est.RunBatchSamples(req.Groups, market, masks, req.WithPi, req.Lo, req.Hi)

	if r.Context().Err() != nil {
		// the coordinator is gone; the partial result is garbage
		wspan.End()
		return
	}
	w.shardsServed.Add(1)
	w.samplesDone.Add(uint64(len(req.Groups) * (req.Hi - req.Lo)))
	resp := EstimateResponse{Samples: samples, Spans: wspan.EndCollect()}
	scratch := getScratch()
	out := resp.AppendBinary((*scratch)[:0])
	rw.Header().Set("Content-Type", ContentTypeBinary)
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(out)
	putScratch(scratch, out)
}

// errDraining is the body of every typed draining rejection.
var errDraining = errors.New("worker draining: finishing in-flight shards, not accepting new ones")

func writeShardJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeShardError(rw http.ResponseWriter, status int, code string, err error) {
	writeShardJSON(rw, status, ErrorBody{Error: err.Error(), Code: code})
}
