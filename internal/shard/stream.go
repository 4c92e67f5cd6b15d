package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// stream is the coordinator's end of one frame stream to a worker
// (DESIGN.md §8): an upgraded connection carrying one request at a
// time. While a request is in flight a watch is armed: the request's
// context ending, or the round-trip ceiling passing, closes the
// stream, which is also how the worker learns to stop its engine.
type stream struct {
	rwc   io.ReadWriteCloser
	br    *bufio.Reader
	reply []byte // the last reply frame, valid until the next request

	unwatch func() bool // stops the armed context watch
	timer   *time.Timer // the round-trip ceiling, reset per request
	expired atomic.Bool // the ceiling closed the stream
}

func (s *stream) close() { s.rwc.Close() }

// maxIdleStreams bounds the idle streams a remote keeps for reuse;
// one more closes instead. A batch uses one stream per worker, so this
// is the number of batches that can dispatch to a worker at once
// without dialling.
const maxIdleStreams = 16

// transport is what streams are dialled through: the client's
// Transport, or http.DefaultTransport when it has none. Never
// client.Do: a client Timeout wraps a 101 body in a reader that is no
// stream and would tear the stream down when it fires.
func (p *Pool) transport() http.RoundTripper {
	if p.client.Transport != nil {
		return p.client.Transport
	}
	return http.DefaultTransport
}

// dial opens a frame stream to r: GET PathEstimate upgraded to
// imdpp-shard. The upgrade runs under the pool's own context, ended by
// ctx as well: a stream outlives the batch that opens it and must
// carry none of the batch's values.
func (p *Pool) dial(ctx context.Context, r *Remote) (*stream, error) {
	dctx, cancel := context.WithCancel(p.loopCtx)
	defer cancel()
	defer context.AfterFunc(ctx, cancel)()
	if p.rtTimeout > 0 {
		var cancelT context.CancelFunc
		dctx, cancelT = context.WithTimeout(dctx, p.rtTimeout)
		defer cancelT()
	}
	req, err := http.NewRequestWithContext(dctx, http.MethodGet, r.url+PathEstimate, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", upgradeToken)
	resp, err := p.transport().RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		resp.Body.Close()
		return nil, fmt.Errorf("shard: stream upgrade answered %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if !ok {
		resp.Body.Close()
		return nil, fmt.Errorf("shard: stream upgrade: the 101 body (%T) is not an io.ReadWriteCloser", resp.Body)
	}
	return &stream{rwc: rwc, br: bufio.NewReader(rwc)}, nil
}

// takeStream returns an idle stream to r, or dials one.
func (p *Pool) takeStream(ctx context.Context, r *Remote) (*stream, error) {
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		s := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.mu.Unlock()
		return s, nil
	}
	r.mu.Unlock()
	return p.dial(ctx, r)
}

// putStream keeps a stream for reuse, unless r left rotation, the
// pool is closed or r keeps enough.
func (p *Pool) putStream(r *Remote, s *stream) {
	r.mu.Lock()
	if r.inRotation && !p.closed.Load() && len(r.idle) < maxIdleStreams {
		r.idle = append(r.idle, s)
		s = nil
	}
	r.mu.Unlock()
	if s != nil {
		s.close()
	}
}

// release returns s to r's idle streams after a reply read whole —
// err nil, or a worker's error frame — and closes it after any other
// failure, which may have left it out of step.
func (p *Pool) release(r *Remote, s *stream, err error) {
	var se *shardError
	if err == nil || errors.As(err, &se) {
		p.putStream(r, s)
		return
	}
	s.close()
}

// dropStreams closes r's idle streams (called under r.mu): a worker
// that failed may have lost them all.
func (r *Remote) dropStreams() {
	for _, s := range r.idle {
		s.close()
	}
	r.idle = nil
}

// send writes one request frame on s and arms its watch until recv.
func (p *Pool) send(ctx context.Context, s *stream, frame []byte) error {
	s.unwatch = context.AfterFunc(ctx, s.close)
	if p.rtTimeout > 0 {
		if s.timer == nil {
			s.timer = time.AfterFunc(p.rtTimeout, func() { s.expired.Store(true); s.close() })
		} else {
			s.timer.Reset(p.rtTimeout)
		}
	}
	n, err := s.rwc.Write(frame)
	p.bytesTx.Add(uint64(n))
	if err != nil {
		s.disarm()
		return p.watchErr(ctx, s, err)
	}
	return nil
}

// recv reads the reply to the request send wrote and disarms the
// watch. The reply stays valid until s carries another request; a
// worker's error frame comes back as its *shardError. The caller
// releases s either way (release).
func (p *Pool) recv(ctx context.Context, s *stream) ([]byte, error) {
	var err error
	s.reply, err = readFrame(s.br, s.reply)
	p.bytesRx.Add(uint64(len(s.reply)))
	if !s.disarm() && err == nil {
		err = errors.New("shard: stream closed under the reply")
	}
	switch {
	case err != nil:
		return nil, p.watchErr(ctx, s, err)
	case s.reply[4] == frameError:
		return nil, decodeError(s.reply)
	}
	return s.reply, nil
}

// disarm stops s's watch and reports whether it never fired.
func (s *stream) disarm() bool {
	ok := s.unwatch()
	if s.timer != nil && !s.timer.Stop() {
		ok = false
	}
	return ok
}

// watchErr names why a request failed when the watch closed its
// stream under it.
func (p *Pool) watchErr(ctx context.Context, s *stream, err error) error {
	switch {
	case ctx.Err() != nil:
		return ctx.Err()
	case s.expired.Load():
		return fmt.Errorf("shard: no reply within %v: %w", p.rtTimeout, err)
	}
	return err
}
