package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"time"

	"imdpp/internal/diffusion"
)

// Coordinator side of the worker lifecycle protocol (DESIGN.md §13):
// workers announce themselves with a capability advertisement, prove
// liveness with heartbeats, and say goodbye with a deregister. The
// protocol rides plain JSON — registration is a once-per-process
// handshake, not a hot path, so the binary codec buys nothing here.

// maxRemotes bounds the registry so a hostile or buggy client cannot
// grow the coordinator's probe/planning state without bound.
const maxRemotes = 256

// WorkerCaps is a worker's capability advertisement, sent once at
// registration. Wire compatibility is checked here, once: a worker
// whose frame version differs from the coordinator's is refused at the
// door instead of failing request by request.
type WorkerCaps struct {
	// CodecVersion is the binary frame version the worker decodes
	// (DESIGN.md §8); registration requires it to equal the
	// coordinator's frameVersion.
	CodecVersion int `json:"codec_version"`
	// Capacity is a concurrency hint (typically GOMAXPROCS), surfaced
	// in /metrics for operators; planning ignores it — every healthy
	// worker gets an even share.
	Capacity int `json:"capacity"`
}

// DefaultWorkerCaps advertises this build's actual capabilities.
func DefaultWorkerCaps() WorkerCaps {
	return WorkerCaps{
		CodecVersion: frameVersion,
		Capacity:     runtime.GOMAXPROCS(0),
	}
}

// RegisterRequest announces a worker at URL with caps.
type RegisterRequest struct {
	URL  string     `json:"url"`
	Caps WorkerCaps `json:"caps"`
}

// RegisterResponse acknowledges a registration and dictates the
// heartbeat cadence; silence for ~3 beats marks the worker suspect.
type RegisterResponse struct {
	OK              bool  `json:"ok"`
	HeartbeatMillis int64 `json:"heartbeat_millis"`
}

// HeartbeatRequest is one liveness beat from a registered worker.
type HeartbeatRequest struct {
	URL string `json:"url"`
}

// DeregisterRequest removes a worker from the registry — the tail of
// a graceful drain.
type DeregisterRequest struct {
	URL string `json:"url"`
}

// normalizeWorkerURL validates and canonicalises a worker base URL for
// every way into the registry: NewPool, ParseWorkerList and Register.
func normalizeWorkerURL(raw string) (string, error) {
	raw = strings.TrimSuffix(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("shard: bad worker url %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("shard: bad worker url %q (want http(s)://host[:port])", raw)
	}
	return raw, nil
}

// ParseWorkerList splits a comma-separated worker list (imdppd
// -shard-workers, imdpprun -workers), skipping blanks, and refuses a
// malformed entry with the error Register would give it.
func ParseWorkerList(list string) ([]string, error) {
	var urls []string
	for _, raw := range strings.Split(list, ",") {
		if strings.TrimSpace(raw) == "" {
			continue
		}
		u, err := normalizeWorkerURL(raw)
		if err != nil {
			return nil, err
		}
		urls = append(urls, u)
	}
	return urls, nil
}

// find returns the entry for the normalized URL u, or nil; p.mu held.
func (p *Pool) find(u string) *Remote {
	for _, r := range p.remotes {
		if r.url == u {
			return r
		}
	}
	return nil
}

// entry returns the entry for the normalized URL u, inserting a fresh
// one — alive, just heard from — below maxRemotes. NewPool's seed list
// and Register both insert here: one worker, one entry.
func (p *Pool) entry(u string) (*Remote, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r := p.find(u); r != nil {
		return r, nil
	}
	if len(p.remotes) >= maxRemotes {
		return nil, fmt.Errorf("shard: registry full (%d workers)", maxRemotes)
	}
	r := &Remote{url: u, lastHeard: time.Now(), problems: make(map[diffusion.Digest]bool)}
	p.remotes = append(p.remotes, r)
	return r, nil
}

// Register adds (or re-animates) the worker at rawURL. Registration is
// idempotent and doubles as crash recovery: a worker that restarts
// re-registers under the same URL, which resets its lifecycle state
// and forgets its acknowledged uploads (the new process holds none —
// the unknown_problem path would also heal this, lazily). A worker
// seeded by NewPool registers into its existing entry.
//
// A worker whose caps.CodecVersion is not this build's frame version
// is refused with a typed 409 incompatible_worker, and any earlier
// registration under its URL is dropped: the process now answering
// there cannot decode this coordinator's frames.
func (p *Pool) Register(rawURL string, caps WorkerCaps) error {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return err
	}
	if caps.CodecVersion != frameVersion {
		p.Deregister(u)
		p.logger.Warn("shard worker refused: incompatible frame version", "worker", u,
			"codec_version", caps.CodecVersion, "want", frameVersion)
		return &shardError{status: http.StatusConflict, code: CodeIncompatibleWorker,
			msg: fmt.Sprintf("worker decodes frame version %d, coordinator speaks %d; upgrade coordinator and workers together",
				caps.CodecVersion, frameVersion)}
	}
	r, err := p.entry(u)
	if err != nil {
		return err
	}
	r.mu.Lock()
	rejoined := r.state != stateAlive
	r.registered = true
	r.caps = caps
	r.state = stateAlive
	r.lastHeard = time.Now()
	r.lastErr = ""
	r.probeFails = 0
	r.strikes = 0
	r.breakerUntil = time.Time{}
	r.problems = make(map[diffusion.Digest]bool)
	r.mu.Unlock()

	if rejoined {
		p.rejoins.Add(1)
	}
	p.logger.Info("shard worker registered", "worker", u,
		"codec_version", caps.CodecVersion, "capacity", caps.Capacity, "rejoined", rejoined)
	return nil
}

// Heartbeat records a liveness beat from a registered worker; a beat
// from a suspect/probing/dead worker brings it straight back into
// rotation (the worker itself is the best probe there is). Draining
// workers stay draining — only re-registration revives those. It
// returns false when the URL has no live registration, which tells the
// worker to re-register (the coordinator may have restarted).
func (p *Pool) Heartbeat(rawURL string) bool {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return false
	}
	p.mu.Lock()
	r := p.find(u)
	p.mu.Unlock()
	if r == nil {
		return false
	}
	r.mu.Lock()
	if !r.registered { // caps unchecked: the worker must register first
		r.mu.Unlock()
		return false
	}
	r.lastHeard = time.Now()
	rejoined := false
	switch r.state {
	case stateSuspect, stateProbing, stateDead:
		r.state = stateAlive
		r.probeFails = 0
		r.lastErr = ""
		rejoined = true
	}
	r.mu.Unlock()
	p.heartbeats.Add(1)
	if rejoined {
		p.rejoins.Add(1)
	}
	return true
}

// Deregister removes the worker at rawURL from the registry entirely —
// the tail of a graceful drain (idempotent: removing an unknown URL is
// a no-op). Any in-flight dispatch to it finishes or fails over as
// usual; either way the result is unchanged (§3/§7).
func (p *Pool) Deregister(rawURL string) {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return
	}
	p.mu.Lock()
	n := len(p.remotes)
	p.remotes = slices.DeleteFunc(p.remotes, func(r *Remote) bool { return r.url == u })
	removed := len(p.remotes) < n
	p.mu.Unlock()
	if removed {
		p.logger.Info("shard worker deregistered", "worker", u)
	}
}

// HandleRegister is the POST /v1/shard/register handler. A typed
// refusal (409 incompatible_worker) keeps its status and code; any
// other registration error is a 400 bad_request.
func (p *Pool) HandleRegister(rw http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<16)).Decode(&req); err != nil {
		writeShardError(rw, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad register request: %w", err))
		return
	}
	if err := p.Register(req.URL, req.Caps); err != nil {
		var se *shardError
		if errors.As(err, &se) {
			writeShardJSON(rw, se.status, ErrorBody{Error: se.msg, Code: se.code})
			return
		}
		writeShardError(rw, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	writeShardJSON(rw, http.StatusOK, RegisterResponse{
		OK:              true,
		HeartbeatMillis: p.hbInterval.Milliseconds(),
	})
}

// HandleHeartbeat is the POST /v1/shard/heartbeat handler. An unknown
// URL answers 404 unknown_worker, telling the worker to re-register.
func (p *Pool) HandleHeartbeat(rw http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<16)).Decode(&req); err != nil {
		writeShardError(rw, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad heartbeat: %w", err))
		return
	}
	if !p.Heartbeat(req.URL) {
		writeShardError(rw, http.StatusNotFound, CodeUnknownWorker,
			fmt.Errorf("no registration for %q", req.URL))
		return
	}
	writeShardJSON(rw, http.StatusOK, map[string]bool{"ok": true})
}

// HandleDeregister is the POST /v1/shard/deregister handler.
func (p *Pool) HandleDeregister(rw http.ResponseWriter, r *http.Request) {
	var req DeregisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<16)).Decode(&req); err != nil {
		writeShardError(rw, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad deregister: %w", err))
		return
	}
	p.Deregister(req.URL)
	writeShardJSON(rw, http.StatusOK, map[string]bool{"ok": true})
}

// MountRegistry mounts the lifecycle endpoints on mux (the coordinator
// side of dynamic fleets; static-list deployments skip it).
func (p *Pool) MountRegistry(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathRegister, p.HandleRegister)
	mux.HandleFunc("POST "+PathHeartbeat, p.HandleHeartbeat)
	mux.HandleFunc("POST "+PathDeregister, p.HandleDeregister)
}
