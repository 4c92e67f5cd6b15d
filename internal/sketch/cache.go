package sketch

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"imdpp/internal/castore"
	"imdpp/internal/diffusion"
)

// Cache shares built sketches across estimators and requests, one
// castore entry each. Entries are keyed by the problem's content
// address plus the sketch parameters (ε, δ, seed, MaxTheta) — the same
// content-addressing discipline as the serving layer's result cache,
// but a separate lane: a sketch is an approximation artefact and must
// never alias an exact MC result (DESIGN.md §9). Sketches live in
// memory only; a restart rebuilds them.
type Cache struct {
	store  *castore.Store[*Sketch]
	builds atomic.Uint64
}

// cacheEntries is how many sketches a Cache holds in memory.
const cacheEntries = 4

// NewCache creates a cache holding up to cacheEntries sketches.
func NewCache() *Cache {
	return &Cache{store: castore.New(castore.Config[*Sketch]{Budget: cacheEntries})}
}

// Stats reports cumulative builds and hits (joined in-flight builds
// included).
func (c *Cache) Stats() (builds, hits uint64) {
	if c == nil {
		return 0, 0
	}
	st := c.store.Stats()
	return c.builds.Load(), st.Hits + st.Joins
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

// GetOrBuild returns the sketch for (p, par), building it at most once
// per key across concurrent callers (castore's Do), keyed by the
// problem's content address (Problem.ContentDigest, memoized per
// substrate). A nil cache builds directly. Build failures — including
// preemption via stop — are not cached, and a caller joined to a build
// that fails builds itself, so one request's cancellation never fails
// another. A joiner's own stop ends its wait with ErrPreempted.
func (c *Cache) GetOrBuild(p *diffusion.Problem, par Params, workers int, stop <-chan struct{}) (*Sketch, error) {
	if c == nil {
		return Build(p, par, workers, stop)
	}
	par = par.withDefaults()
	sk, err := c.store.Do(c.key(p.ContentDigest().String(), par), stop, func() (*Sketch, error) {
		sk, err := Build(p, par, workers, stop)
		if err == nil {
			c.builds.Add(1)
		}
		return sk, err
	})
	if errors.Is(err, castore.ErrStopped) {
		return nil, ErrPreempted
	}
	return sk, err
}
