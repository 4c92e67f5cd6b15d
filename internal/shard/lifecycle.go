package shard

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"
)

// Worker lifecycle states (DESIGN.md §13). A remote is dispatchable
// only while alive (and its circuit breaker is closed); every other
// state keeps it out of rotation while the failure detector decides
// its fate. None of the transitions can affect results: membership
// only moves work between workers, and every shard is bit-identical
// wherever it runs (§3/§7), so the state machine is pure ops surface.
//
//	alive ──dispatch failure──▶ suspect
//	alive ──silent for the silence timeout, then the probe fails──▶ probing
//	suspect ──failure-detector probe fails──▶ probing (backoff grows)
//	probing ──deadAfter consecutive failures──▶ dead (probed at the cap)
//	suspect|probing|dead ──probe ok──▶ alive
//
// A successful probe counts as hearing from a worker; only silence
// gets an alive one probed. A probe fails on any answer but a 200 from
// a worker that decodes this build's frame version (Pool.probe).
type remoteState int32

const (
	stateAlive remoteState = iota
	stateSuspect
	stateProbing
	stateDead
)

func (s remoteState) String() string {
	switch s {
	case stateAlive:
		return "alive"
	case stateSuspect:
		return "suspect"
	case stateProbing:
		return "probing"
	case stateDead:
		return "dead"
	}
	return "unknown"
}

// backoffFor returns the jittered exponential delay before the probe
// after fails consecutive failures: probeBase doubling per failure,
// capped at probeCap, drawn uniformly from [d/2, d] so a fleet of
// coordinators (or one coordinator probing a rack that died together)
// never hammers a recovering worker in lockstep.
func (p *Pool) backoffFor(fails int) time.Duration {
	d := min(p.probeBase, p.probeCap)
	for i := 0; i < fails && d < p.probeCap; i++ {
		d *= 2
	}
	if d > p.probeCap {
		d = p.probeCap
	}
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// markFailed records a dispatch failure on r: the worker leaves
// rotation as suspect pending a probe, and breakerTrip consecutive
// dispatch failures open its circuit breaker — a flapping worker
// (probes fine, dispatches die) is shed for a full breakerCooldown
// instead of being re-admitted by the next lucky probe.
func (p *Pool) markFailed(r *Remote, err error) {
	r.failures.Add(1)
	now := time.Now()
	r.mu.Lock()
	r.strikes++
	if r.strikes >= p.breakerTrip && !now.Before(r.breakerUntil) {
		r.breakerUntil = now.Add(p.breakerCooldown)
	}
	if r.state == stateAlive || r.state == stateProbing {
		r.state = stateSuspect
		r.probeFails = 0
		r.nextProbe = now.Add(p.backoffFor(0))
	}
	r.lastErr = err.Error()
	r.mu.Unlock()
}

// dispatchOK resets the breaker strike count: strikes count
// *consecutive* dispatch failures, and deliberately survive probe
// successes — a flapping worker's probes pass while its dispatches
// fail, which is exactly the pattern the breaker exists to catch.
func (r *Remote) dispatchOK() {
	r.mu.Lock()
	r.strikes = 0
	r.mu.Unlock()
}

// dispatchable reports whether r should receive new shard dispatches:
// probed, in rotation and not shed by its circuit breaker.
func (r *Remote) dispatchable() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.probed && r.state == stateAlive && !time.Now().Before(r.breakerUntil)
}

// detectLoop is the failure detector: a cheap periodic scan that fires
// due probes — at an alive worker silent for the silence timeout, at a
// down one on jittered exponential backoff — and lets probe outcomes
// drive the state machine.
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

// detectOnce runs one failure-detector scan: an alive remote is due
// once silent for p.silence, any other once its backoff elapses.
func (p *Pool) detectOnce(now time.Time) {
	p.probeWhere(p.loopCtx, func(r *Remote) bool {
		if r.state == stateAlive {
			return now.Sub(r.lastHeard) > p.silence
		}
		return !now.Before(r.nextProbe)
	})
}

// probeWhere starts a probe at every remote due selects (called under
// r.mu). At most one probe per remote is in flight (r.probing); probes
// run concurrently so one unresponsive worker never delays verdicts on
// the rest. It returns the remotes scanned and the probes started.
func (p *Pool) probeWhere(ctx context.Context, due func(*Remote) bool) ([]*Remote, *sync.WaitGroup) {
	p.mu.Lock()
	remotes := append([]*Remote(nil), p.remotes...)
	p.mu.Unlock()
	wg := new(sync.WaitGroup)
	for _, r := range remotes {
		r.mu.Lock()
		start := !r.probing && due(r)
		r.probing = r.probing || start
		r.mu.Unlock()
		if start {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.onProbe(r, p.probe(ctx, r))
			}()
		}
	}
	return remotes, wg
}

// onProbe folds one probe verdict into r's lifecycle state.
func (p *Pool) onProbe(r *Remote, err error) {
	now := time.Now()
	rejoined := false
	r.mu.Lock()
	r.probing, r.probed = false, true
	switch {
	case err == nil && now.Before(r.breakerUntil):
		// the worker answers but its breaker is still open: hold it out
		// of rotation until the cooldown elapses, then re-probe
		if r.state == stateSuspect || r.state == stateDead {
			r.state = stateProbing
		}
		r.nextProbe = r.breakerUntil
		r.lastHeard = now
	case err == nil:
		rejoined = r.state != stateAlive
		r.state = stateAlive
		r.probeFails = 0
		r.lastErr = ""
		r.lastHeard = now
	default:
		r.probeFails++
		if r.state != stateDead {
			if r.probeFails >= p.deadAfter {
				r.state = stateDead
			} else {
				r.state = stateProbing
			}
		}
		r.lastErr = err.Error()
		r.nextProbe = now.Add(p.backoffFor(r.probeFails))
	}
	r.mu.Unlock()
	if rejoined {
		p.rejoins.Add(1)
	}
}
