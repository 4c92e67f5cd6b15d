package fleettest

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is the proxy's active fault injection.
type Mode int32

const (
	// Pass forwards requests untouched.
	Pass Mode = iota
	// Drop swallows requests: the client blocks until it gives up
	// (context deadline / client timeout) — a hung or partitioned
	// worker.
	Drop
	// Delay forwards after the configured latency — a slow network or
	// an overloaded worker (stragglers, speculation bait).
	Delay
	// Reset closes the TCP connection without writing a response — a
	// kill -9 observed mid-request.
	Reset
	// Truncate writes a response header with the full Content-Length
	// but only half the body, then closes — a worker dying mid-write,
	// exercising the coordinator's frame decoding under short reads.
	Truncate
	// Error500 answers 500 without consulting the worker — a crashing
	// handler.
	Error500
)

func (m Mode) String() string {
	switch m {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Reset:
		return "reset"
	case Truncate:
		return "truncate"
	case Error500:
		return "error500"
	}
	return "unknown"
}

// Proxy is a chaos reverse proxy in front of one worker. Mount its
// Handler on an httptest server and point the coordinator at that URL.
// All methods are safe for concurrent use; the mode can change while
// requests are in flight.
type Proxy struct {
	mu     sync.Mutex
	target string // worker base URL ("" = no backend: everything resets)

	mode  atomic.Int32
	delay atomic.Int64 // Delay mode latency, nanoseconds

	// killAfter, when nonzero, forces Reset from request killAfter+1 on
	// — a deterministic kill -9 point mid-solve, independent of timing.
	killAfter atomic.Uint64

	// passHealthz, when set, exempts GET /healthz from fault injection
	// — a flapping worker whose probes pass while dispatches die, whose
	// strikes must back its re-admissions off.
	passHealthz atomic.Bool

	client *http.Client

	stopOnce sync.Once
	stop     chan struct{} // releases Drop-blocked requests on Close

	requests atomic.Uint64
	faults   atomic.Uint64
}

// NewProxy builds a chaos proxy forwarding to the worker at target.
func NewProxy(target string) *Proxy {
	return &Proxy{
		target: strings.TrimSuffix(target, "/"),
		client: &http.Client{Timeout: 2 * time.Minute},
		stop:   make(chan struct{}),
	}
}

// SetMode switches the active fault injection.
func (p *Proxy) SetMode(m Mode) { p.mode.Store(int32(m)) }

// CurrentMode reports the active fault injection.
func (p *Proxy) CurrentMode() Mode { return Mode(p.mode.Load()) }

// SetDelay sets the Delay-mode latency.
func (p *Proxy) SetDelay(d time.Duration) { p.delay.Store(int64(d)) }

// KillAfter arms a deterministic kill: the first n requests pass
// normally, every later one gets a connection reset — the worker died
// at a fixed point mid-workload. Zero disarms.
func (p *Proxy) KillAfter(n uint64) { p.killAfter.Store(n) }

// PassHealthz exempts GET /healthz from fault injection (the flapping-
// worker shape: probes fine, dispatches die).
func (p *Proxy) PassHealthz(on bool) { p.passHealthz.Store(on) }

// SetTarget repoints the proxy at a new worker URL — a "restarted on
// the same address" rejoin without rebinding the listener.
func (p *Proxy) SetTarget(target string) {
	p.mu.Lock()
	p.target = strings.TrimSuffix(target, "/")
	p.mu.Unlock()
}

// Requests reports how many requests reached the proxy; Faults how
// many were answered with an injected fault.
func (p *Proxy) Requests() uint64 { return p.requests.Load() }
func (p *Proxy) Faults() uint64   { return p.faults.Load() }

// Close releases any Drop-blocked requests. The proxy stays usable
// (Pass-through) afterwards; Close exists so tests do not leak blocked
// handler goroutines past their own scope.
func (p *Proxy) Close() { p.stopOnce.Do(func() { close(p.stop) }) }

// Handler serves the proxy. Use as the handler of an httptest.Server.
func (p *Proxy) Handler() http.Handler { return http.HandlerFunc(p.serve) }

func (p *Proxy) serve(rw http.ResponseWriter, r *http.Request) {
	n := p.requests.Add(1)
	mode := p.CurrentMode()
	if k := p.killAfter.Load(); k > 0 && n > k {
		mode = Reset
	}
	if p.passHealthz.Load() && r.Method == http.MethodGet && r.URL.Path == "/healthz" {
		mode = Pass
	}
	switch mode {
	case Drop:
		p.faults.Add(1)
		select { // hold the request open until the client gives up
		case <-r.Context().Done():
		case <-p.stop:
		}
		return
	case Reset:
		p.faults.Add(1)
		p.hijackClose(rw, nil, 0)
		return
	case Error500:
		p.faults.Add(1)
		http.Error(rw, "injected fault", http.StatusInternalServerError)
		return
	case Delay:
		p.faults.Add(1)
		t := time.NewTimer(time.Duration(p.delay.Load()))
		defer t.Stop()
		select {
		case <-r.Context().Done():
			return
		case <-p.stop:
			return
		case <-t.C:
		}
	}

	status, header, body, err := p.forward(r)
	if err != nil {
		// no backend (or it died): surface as a connection reset, the
		// closest transport-level analogue
		p.hijackClose(rw, nil, 0)
		return
	}
	if mode == Truncate {
		p.faults.Add(1)
		p.hijackClose(rw, &truncated{status: status, contentType: header.Get("Content-Type"), body: body}, len(body)/2)
		return
	}
	for k, vs := range header {
		for _, v := range vs {
			rw.Header().Add(k, v)
		}
	}
	rw.WriteHeader(status)
	_, _ = rw.Write(body)
}

// forward relays the request to the target worker and buffers the
// response (buffering is what makes Truncate's half-body math exact).
func (p *Proxy) forward(r *http.Request) (int, http.Header, []byte, error) {
	p.mu.Lock()
	target := p.target
	p.mu.Unlock()
	if target == "" {
		return 0, nil, nil, fmt.Errorf("fleettest: proxy has no target")
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	for _, h := range []string{"Content-Type", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, out, nil
}

// truncated describes the partial response Truncate fabricates.
type truncated struct {
	status      int
	contentType string
	body        []byte
}

// hijackClose takes over the TCP connection. With t nil it closes
// immediately (Reset); with t set it hand-writes an HTTP/1.1 response
// claiming the full Content-Length, sends only n body bytes, and
// closes — a short read the client cannot mistake for a complete
// frame.
func (p *Proxy) hijackClose(rw http.ResponseWriter, t *truncated, n int) {
	hj, ok := rw.(http.Hijacker)
	if !ok { // e.g. HTTP/2 test server: degrade to an abrupt 500
		rw.WriteHeader(http.StatusInternalServerError)
		return
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	if t == nil {
		return
	}
	fmt.Fprintf(buf, "HTTP/1.1 %d %s\r\n", t.status, http.StatusText(t.status))
	if t.contentType != "" {
		fmt.Fprintf(buf, "Content-Type: %s\r\n", t.contentType)
	}
	fmt.Fprintf(buf, "Content-Length: %d\r\nConnection: close\r\n\r\n", len(t.body))
	_, _ = buf.Write(t.body[:n])
	_ = buf.Flush()
}
