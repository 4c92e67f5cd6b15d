package fleettest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"imdpp/internal/wirebin"
)

// Mode is the proxy's active fault injection. It applies to each
// request frame on a shard stream and to each plain HTTP request (the
// /healthz probes); the stream upgrade itself is only ever reset.
type Mode int32

const (
	// Pass forwards requests untouched.
	Pass Mode = iota
	// Drop swallows requests: the client waits until it gives up (its
	// round-trip deadline or cancellation) — a hung or partitioned
	// worker.
	Drop
	// Delay forwards after the configured latency — a slow network or
	// an overloaded worker (stragglers, speculation bait).
	Delay
	// Reset closes the connection without a reply — a kill -9 observed
	// mid-request. A stream upgrade is reset too: a killed worker takes
	// no new connections.
	Reset
	// Truncate forwards, then writes only half the reply and closes — a
	// worker dying mid-write, exercising the coordinator's frame
	// decoding under short reads.
	Truncate
	// Error500 answers without consulting the worker: an error frame on
	// a stream, a 500 to an HTTP request — a crashing handler.
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
// It relays a shard stream frame by frame (DESIGN.md §8): one request
// frame from the coordinator, one reply frame from the worker. All
// methods are safe for concurrent use; the mode can change while
// requests are in flight.
type Proxy struct {
	mu     sync.Mutex
	target string                 // worker base URL ("" = no backend: everything resets)
	conns  map[io.Closer]struct{} // open stream ends, closed by Close

	mode  atomic.Int32
	delay atomic.Int64 // Delay mode latency, nanoseconds

	// killAfter, when nonzero, forces Reset from request killAfter+1 on
	// — a deterministic kill -9 point mid-solve, independent of timing.
	killAfter atomic.Uint64

	// passHealthz, when set, exempts GET /healthz from fault injection
	// — a flapping worker whose probes pass while dispatches die, whose
	// strikes must back its re-admissions off.
	passHealthz atomic.Bool

	// only, when set, limits fault injection to the request frames it
	// accepts; the rest pass.
	only atomic.Pointer[func(frame []byte) bool]

	client *http.Client

	stopOnce sync.Once
	stop     chan struct{} // releases Drop- and Delay-held requests on Close

	requests atomic.Uint64
	faults   atomic.Uint64
}

// NewProxy builds a chaos proxy forwarding to the worker at target.
func NewProxy(target string) *Proxy {
	return &Proxy{
		target: strings.TrimSuffix(target, "/"),
		conns:  make(map[io.Closer]struct{}),
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

// KillAfter arms a deterministic kill: the first n requests (probes
// and request frames) pass normally, every later one gets a connection
// reset — the worker died at a fixed point mid-workload. Zero disarms.
func (p *Proxy) KillAfter(n uint64) { p.killAfter.Store(n) }

// PassHealthz exempts GET /healthz from fault injection (the flapping-
// worker shape: probes fine, dispatches die).
func (p *Proxy) PassHealthz(on bool) { p.passHealthz.Store(on) }

// Only limits fault injection to the request frames match accepts
// (the whole frame, header included); every other frame passes, and so
// do plain HTTP requests. nil restores faults on everything.
func (p *Proxy) Only(match func(frame []byte) bool) {
	if match == nil {
		p.only.Store(nil)
		return
	}
	p.only.Store(&match)
}

// SetTarget repoints the proxy at a new worker URL — a "restarted on
// the same address" rejoin without rebinding the listener.
func (p *Proxy) SetTarget(target string) {
	p.mu.Lock()
	p.target = strings.TrimSuffix(target, "/")
	p.mu.Unlock()
}

// Requests reports how many requests (probes and request frames)
// reached the proxy; Faults how many were answered with an injected
// fault.
func (p *Proxy) Requests() uint64 { return p.requests.Load() }
func (p *Proxy) Faults() uint64   { return p.faults.Load() }

// Close releases any Drop- or Delay-held requests and closes every
// relayed stream. The proxy stays usable (Pass-through) afterwards;
// Close exists so tests do not leak handler goroutines past their own
// scope.
func (p *Proxy) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Handler serves the proxy. Use as the handler of an httptest.Server.
func (p *Proxy) Handler() http.Handler { return http.HandlerFunc(p.serve) }

// fault returns the mode for request n.
func (p *Proxy) fault(n uint64) Mode {
	if k := p.killAfter.Load(); k > 0 && n > k {
		return Reset
	}
	return p.CurrentMode()
}

// hold waits out d; false means Close or gone closed first.
func (p *Proxy) hold(d time.Duration, gone <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-p.stop:
		return false
	case <-gone:
		return false
	case <-t.C:
		return true
	}
}

func (p *Proxy) serve(rw http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != "" {
		p.serveStream(rw, r)
		return
	}
	mode := p.fault(p.requests.Add(1))
	if p.only.Load() != nil || p.passHealthz.Load() && r.Method == http.MethodGet && r.URL.Path == "/healthz" {
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
		if !p.hold(time.Duration(p.delay.Load()), r.Context().Done()) {
			return
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

// serveStream relays one shard stream: it opens the worker's own
// stream, answers the coordinator's upgrade, and then passes request
// frames to the worker and reply frames back, one at a time, faulting
// each request frame by the mode.
func (p *Proxy) serveStream(rw http.ResponseWriter, r *http.Request) {
	if p.fault(p.requests.Load()+1) == Reset {
		p.hijackClose(rw, nil, 0)
		return
	}
	up, err := p.upgrade(r)
	if err != nil {
		p.hijackClose(rw, nil, 0)
		return
	}
	conn, brw, err := http.NewResponseController(rw).Hijack()
	if err != nil {
		up.Close()
		return
	}
	if !p.track(conn, up) {
		return
	}
	defer p.untrack(conn, up)
	fmt.Fprintf(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", r.Header.Get("Upgrade"))
	upr := bufio.NewReader(up)
	for {
		frame, err := readFrame(brw.Reader)
		if err != nil {
			return
		}
		mode := p.fault(p.requests.Add(1))
		if match := p.only.Load(); match != nil && !(*match)(frame) && mode != Reset {
			mode = Pass
		}
		switch mode {
		case Drop:
			p.faults.Add(1)
			// hold the frame until the client gives up on it and closes
			_, _ = io.Copy(io.Discard, brw.Reader)
			return
		case Reset:
			p.faults.Add(1)
			return
		case Error500:
			p.faults.Add(1)
			if _, err := conn.Write(errorFrame(frame[3], "injected_fault", "injected fault")); err != nil {
				return
			}
			continue
		case Delay:
			p.faults.Add(1)
			if !p.hold(time.Duration(p.delay.Load()), nil) {
				return
			}
		}
		if _, err := up.Write(frame); err != nil {
			return
		}
		reply, err := readFrame(upr)
		if err != nil {
			return
		}
		if mode == Truncate {
			p.faults.Add(1)
			_, _ = conn.Write(reply[:len(reply)/2])
			return
		}
		if _, err := conn.Write(reply); err != nil {
			return
		}
	}
}

// upgrade opens the target worker's stream, relaying the coordinator's
// Upgrade header.
func (p *Proxy) upgrade(r *http.Request) (io.ReadWriteCloser, error) {
	p.mu.Lock()
	target := p.target
	p.mu.Unlock()
	if target == "" {
		return nil, fmt.Errorf("fleettest: proxy has no target")
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target+r.URL.RequestURI(), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", r.Header.Get("Upgrade"))
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok {
		resp.Body.Close()
		return nil, fmt.Errorf("fleettest: worker answered the upgrade %d", resp.StatusCode)
	}
	return rwc, nil
}

// track registers a relayed stream's two ends for Close, or closes
// them if Close already ran.
func (p *Proxy) track(ends ...io.Closer) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.stop:
		for _, c := range ends {
			c.Close()
		}
		return false
	default:
	}
	for _, c := range ends {
		p.conns[c] = struct{}{}
	}
	return true
}

// untrack closes a relayed stream's ends and forgets them.
func (p *Proxy) untrack(ends ...io.Closer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range ends {
		c.Close()
		delete(p.conns, c)
	}
}

// The shard frame header (DESIGN.md §8): magic "IMB", version, kind,
// flags, then the payload length as a little-endian u32.
const (
	frameHeaderLen  = 10
	frameErrorKind  = 5
	maxFramePayload = 1 << 30
)

// readFrame reads one whole frame off a stream.
func readFrame(r io.Reader) ([]byte, error) {
	head := make([]byte, frameHeaderLen)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(head[6:])
	if string(head[:3]) != "IMB" || n > maxFramePayload {
		return nil, fmt.Errorf("fleettest: not a shard frame")
	}
	frame := append(head, make([]byte, n)...)
	_, err := io.ReadFull(r, frame[frameHeaderLen:])
	return frame, err
}

// errorFrame builds a shard error frame of the given version: a typed
// code and a message.
func errorFrame(version byte, code, msg string) []byte {
	payload := wirebin.AppendString(wirebin.AppendString(nil, code), msg)
	b := []byte{'I', 'M', 'B', version, frameErrorKind, 0}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
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
