package shard

import (
	"context"
	"math/rand/v2"
	"time"
)

// The failure rule (DESIGN.md §13). A listed worker is out of rotation
// until a probe answers. Any failure takes it out again — a failed
// dispatch (markFailed) or a failed probe (onProbe) — and schedules
// its next probe at backoffFor(probeFails + strikes):
//
//   - probeFails counts failed probes since the worker left rotation;
//     a probe success clears it.
//   - strikes counts consecutive failed dispatches; a probe success
//     leaves it alone and only a dispatch success clears it, so a
//     flapping worker (probes pass, dispatches die) is re-admitted on
//     a backoff that grows to the cap.
//
// A successful probe counts as hearing from a worker; only silence
// gets one in rotation probed. A probe fails on any answer but a 200
// from a worker that decodes this build's frame version (Pool.probe).
// None of this can affect results: rotation only moves work between
// workers, and every shard is bit-identical wherever it runs (§3/§7).

// backoffSpan is the delay bound after n failures: probeBase doubling
// per failure, capped at probeCap.
func (p *Pool) backoffSpan(n int) time.Duration {
	d := min(p.probeBase, p.probeCap)
	for i := 0; i < n && d < p.probeCap; i++ {
		d *= 2
	}
	return min(d, p.probeCap)
}

// backoffFor draws the delay before the next probe after n failures
// uniformly from [d/2, d], d = backoffSpan(n), so a fleet of
// coordinators (or one coordinator probing a rack that died together)
// never hammers a recovering worker in lockstep.
func (p *Pool) backoffFor(n int) time.Duration {
	d := p.backoffSpan(n)
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// leave takes r out of rotation for err, closes its idle streams and
// schedules its next probe (called under r.mu).
func (p *Pool) leave(r *Remote, err error) {
	r.inRotation = false
	r.dropStreams()
	r.lastErr = err.Error()
	r.nextProbe = time.Now().Add(p.backoffFor(r.probeFails + r.strikes))
}

// markFailed records a failed dispatch on r: one more strike, and out
// of rotation until a probe answers.
func (p *Pool) markFailed(r *Remote, err error) {
	r.failures.Add(1)
	r.mu.Lock()
	r.strikes++
	p.leave(r, err)
	r.mu.Unlock()
}

// dispatchOK clears r's strikes: a dispatch success is the only proof
// that a worker does more than answer probes.
func (r *Remote) dispatchOK() {
	r.mu.Lock()
	r.strikes = 0
	r.mu.Unlock()
}

// dispatchable reports whether r is in rotation: the predicate both
// dispatch and Snapshot's Healthy count.
func (r *Remote) dispatchable() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inRotation
}

// unprobed reports whether no verdict has reached r yet: out of
// rotation with no probe scheduled, as every listed worker starts
// (called under r.mu).
func (r *Remote) unprobed() bool {
	return !r.inRotation && r.nextProbe.IsZero()
}

// label derives r's /metrics state (called under r.mu): alive in
// rotation; suspect out with no failed probe since it left; dead out
// with a failed probe and its backoff at the cap; probing otherwise.
func (p *Pool) label(r *Remote) string {
	switch {
	case r.inRotation:
		return "alive"
	case r.probeFails == 0:
		return "suspect"
	case p.backoffSpan(r.probeFails+r.strikes) >= p.probeCap:
		return "dead"
	}
	return "probing"
}

// detectLoop is the failure detector: a cheap periodic scan that fires
// due probes — at a worker in rotation silent for the silence timeout,
// at one out of rotation once its backoff elapses.
func (p *Pool) detectLoop() {
	tick := min(p.probeBase, p.probeCap) / 2
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.detectOnce(time.Now())
		}
	}
}

// detectOnce runs one failure-detector scan. A worker never probed is
// due at once (its nextProbe is zero).
func (p *Pool) detectOnce(now time.Time) {
	p.probeWhere(p.loopCtx, func(r *Remote) bool {
		if r.inRotation {
			return now.Sub(r.lastHeard) > p.silence
		}
		return !now.Before(r.nextProbe)
	})
}

// probeWhere starts a probe at every remote due selects (called under
// r.mu) and returns one channel per selected remote, closed once its
// verdict is folded in. At most one probe per remote is in flight: a
// selected remote already being probed yields that probe's channel.
// Probes run concurrently so one unresponsive worker never delays
// verdicts on the rest.
func (p *Pool) probeWhere(ctx context.Context, due func(*Remote) bool) []chan struct{} {
	p.mu.Lock()
	remotes := append([]*Remote(nil), p.remotes...)
	p.mu.Unlock()
	var verdicts []chan struct{}
	for _, r := range remotes {
		r.mu.Lock()
		if !due(r) {
			r.mu.Unlock()
			continue
		}
		start := r.probeDone == nil
		if start {
			r.probeDone = make(chan struct{})
		}
		verdicts = append(verdicts, r.probeDone)
		r.mu.Unlock()
		if start {
			go func() { p.onProbe(r, p.probe(ctx, r)) }()
		}
	}
	return verdicts
}

// onProbe folds one probe verdict into r: a success puts it in
// rotation, a failure takes it out.
func (p *Pool) onProbe(r *Remote, err error) {
	r.mu.Lock()
	rejoined := err == nil && !r.inRotation && !r.unprobed()
	if err == nil {
		r.inRotation, r.probeFails, r.lastErr, r.lastHeard = true, 0, "", time.Now()
	} else {
		r.probeFails++
		p.leave(r, err)
	}
	close(r.probeDone)
	r.probeDone = nil
	r.mu.Unlock()
	if rejoined {
		p.rejoins.Add(1)
	}
}
