package sketch

import (
	"fmt"
	"math"
	"sync/atomic"

	"imdpp/internal/castore"
	"imdpp/internal/diffusion"
)

// Cache shares built sketches across estimators and requests, one
// castore entry each. Entries are keyed by the problem's content
// address plus the sketch parameters (ε, δ, seed, MaxTheta) — the same content-addressing discipline as
// the serving layer's result cache, but a separate lane: a sketch is
// an approximation artefact and must never alias an exact MC result
// (DESIGN.md §9). With a directory configured, built sketches are also
// persisted in the canonical wire form and reloaded on miss, so a
// daemon restart (or a worker receiving a shipped index) skips the
// build.
type Cache struct {
	keyFn  func(*diffusion.Problem) string
	store  *castore.Store[*Sketch]
	builds atomic.Uint64
}

// NewCache creates a cache holding up to max sketches in memory
// (max ≤ 0 → 4). dir, when non-empty, enables disk persistence (it is
// created on first write). keyFn maps a problem to its content
// address; a nil keyFn disables caching entirely (GetOrBuild just
// builds), because without a content key two distinct problems could
// alias.
func NewCache(max int, dir string, keyFn func(*diffusion.Problem) string) *Cache {
	if max <= 0 {
		max = 4
	}
	return &Cache{keyFn: keyFn, store: castore.New(castore.Config[*Sketch]{
		Budget: int64(max),
		Dir:    dir,
		Encode: func(b []byte, sk *Sketch) []byte { return sk.AppendBinary(b) },
		Decode: Decode,
	})}
}

// Stats reports cumulative builds, in-memory hits (joined in-flight
// builds included), and disk reloads. A disk reload avoids a build but
// counts as neither a build nor an in-memory hit — diskHits is the
// only trace it leaves.
func (c *Cache) Stats() (builds, hits, diskHits uint64) {
	if c == nil {
		return 0, 0, 0
	}
	st := c.store.Stats()
	return c.builds.Load(), st.Hits + st.Joins, st.DiskHits
}

// key renders the cache identity of one (problem, Params) pair. Float
// parameters are keyed by their exact bit patterns, so "close" ε
// values are distinct sketches — approximation parameters are
// result-relevant and must never alias. MaxTheta participates too
// (post-withDefaults): once the cap binds it changes θ, and a sketch
// built under a lower cap must not satisfy a higher-cap contract.
func (c *Cache) key(problemKey string, par Params) string {
	return fmt.Sprintf("%s-e%016x-d%016x-s%016x-t%x",
		problemKey, math.Float64bits(par.Epsilon), math.Float64bits(par.Delta), par.Seed, par.MaxTheta)
}

// path returns the disk image location of one cache key.
func (c *Cache) path(key string) string { return c.store.Path(key) }

// GetOrBuild returns the sketch for (p, par), building it at most once
// per key across concurrent callers. A nil cache (or nil keyFn) builds
// directly. Build failures — including preemption via stop — are not
// cached. A caller joined to another's build waits under its own stop:
// if that build fails, the caller retries, building itself if no one
// else has started, so one request's cancellation never fails another.
func (c *Cache) GetOrBuild(p *diffusion.Problem, par Params, workers int, stop <-chan struct{}) (*Sketch, error) {
	if c == nil || c.keyFn == nil {
		return Build(p, par, workers, stop)
	}
	par = par.withDefaults()
	problemKey := c.keyFn(p)
	key := c.key(problemKey, par)
	// self-verify a reloaded image: its decoded identity must match
	// what was asked for. θ is checked against the capped bound because
	// MaxTheta is not stored in the image.
	identity := func(sk *Sketch) bool {
		return sk.ProblemKey == problemKey && sk.Seed == par.Seed &&
			sk.Epsilon == par.Epsilon && sk.Delta == par.Delta &&
			sk.Theta == par.theta()
	}
	for {
		sk, t := c.store.Begin(key, identity)
		if t == nil {
			return sk, nil
		}
		if !t.Owned() {
			if sk, ok := t.Wait(stop); ok {
				return sk, nil
			}
			select {
			case <-stop:
				return nil, ErrPreempted
			default:
				continue // the owner's build failed; retry
			}
		}
		sk, err := Build(p, par, workers, stop)
		if err != nil {
			t.Abort()
			return nil, err
		}
		c.builds.Add(1)
		sk.ProblemKey = problemKey
		t.Commit(sk)
		return sk, nil
	}
}
