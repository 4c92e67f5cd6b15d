package sketch

import (
	"context"
	"sync"

	"imdpp/internal/diffusion"
)

// Config selects the sketch backend's behaviour for one estimator.
type Config struct {
	// Epsilon, Delta are the (ε, δ) accuracy contract (see Params).
	Epsilon float64
	Delta   float64
	// MaxTheta caps the RR sample count (0 → 2^20).
	MaxTheta int
	// Cache, when non-nil, shares built sketches across estimators and
	// requests, keyed by problem content address + parameters. Nil
	// builds a private sketch per estimator.
	Cache *Cache
}

// Estimator adapts a Sketch to the solver's estimation-backend
// interface (core.Estimator). σ-only evaluations — Sigma, SigmaBatch,
// RunBatch, and RunBatchMasked without π — are answered by coverage
// counting over the RR index; π-bearing evaluations and MeanWeights
// need real post-campaign state and delegate to an embedded
// Monte-Carlo engine with the same seed discipline. The sketch is
// built lazily on first σ use (or fetched from Config.Cache) and then
// fixed for the estimator's lifetime: Reseed re-seeds only the
// embedded MC engine, which is the standard TIM/IMM greedy-coverage
// semantics — greedy rounds maximise coverage over one fixed sample
// set, so the winner's-curse reseed the MC engine needs does not apply
// to the coverage oracle (DESIGN.md §9).
type Estimator struct {
	p       *diffusion.Problem
	cfg     Config
	seed    uint64
	workers int
	mc      *diffusion.Estimator

	done <-chan struct{}

	mu sync.Mutex
	sk *Sketch
	sc Scratch
}

// New creates a sketch-backed estimator. mcSamples and seed configure
// the embedded MC engine exactly as the local backend would (so the
// delegated π/MeanWeights paths stay bit-identical to the MC backend);
// the sketch itself is keyed by (problem, Epsilon, Delta, seed).
func New(p *diffusion.Problem, cfg Config, mcSamples int, seed uint64, workers int) *Estimator {
	mc := diffusion.NewEstimator(p, mcSamples, seed)
	mc.Workers = workers
	return &Estimator{p: p, cfg: cfg, seed: seed, workers: workers, mc: mc}
}

// Bind attaches a cancellation context: it preempts both a sketch
// build in flight and the embedded MC engine. Results produced after
// cancellation are partial garbage the caller must discard.
func (e *Estimator) Bind(ctx context.Context) {
	e.done = ctx.Done()
	e.mc.Bind(ctx)
}

// Reseed re-seeds the embedded MC engine only; the RR index stays
// fixed (see the type comment).
func (e *Estimator) Reseed(seed uint64) { e.mc.Reseed(seed) }

func (e *Estimator) preempted() bool {
	if e.done == nil {
		return false
	}
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Warm forces the sketch build (or cache fetch) and reports its error;
// queries after a successful Warm pay only coverage-counting cost. The
// query paths call it implicitly and degrade to the exact MC engine if
// the build fails.
func (e *Estimator) Warm() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.sketchLocked()
	return err
}

func (e *Estimator) sketchLocked() (*Sketch, error) {
	if e.sk != nil {
		return e.sk, nil
	}
	par := Params{Epsilon: e.cfg.Epsilon, Delta: e.cfg.Delta, Seed: e.seed, MaxTheta: e.cfg.MaxTheta}
	sk, err := e.cfg.Cache.GetOrBuild(e.p, par, e.workers, e.done)
	if err != nil {
		return nil, err
	}
	e.sk = sk
	return sk, nil
}

// estimate answers one group by coverage counting, or falls back to
// the MC engine when no sketch is available (build failure — the
// preempted case returns garbage the caller discards anyway).
func (e *Estimator) estimate(seeds []diffusion.Seed, market []bool, withPerItem bool) diffusion.Estimate {
	e.mu.Lock()
	sk, err := e.sketchLocked()
	if err != nil {
		e.mu.Unlock()
		return e.mc.Run(seeds, market, false)
	}
	var perItem []float64
	if withPerItem {
		perItem = make([]float64, sk.Items)
	}
	est := sk.Estimate(seeds, market, perItem, &e.sc)
	e.mu.Unlock()
	return est
}

// Sigma returns the coverage estimate of σ(seeds).
func (e *Estimator) Sigma(seeds []diffusion.Seed) float64 {
	return e.estimate(seeds, nil, false).Sigma
}

// Run estimates one seed group. withPi delegates to the MC engine.
func (e *Estimator) Run(seeds []diffusion.Seed, market []bool, withPi bool) diffusion.Estimate {
	if withPi {
		return e.mc.Run(seeds, market, true)
	}
	return e.estimate(seeds, market, true)
}

// RunBatch estimates every group under one shared market mask by
// coverage counting.
func (e *Estimator) RunBatch(groups [][]diffusion.Seed, market []bool) []diffusion.Estimate {
	out := make([]diffusion.Estimate, len(groups))
	for g, seeds := range groups {
		if e.preempted() {
			break
		}
		out[g] = e.estimate(seeds, market, true)
	}
	return out
}

// RunBatchPi needs π and delegates to the MC engine.
func (e *Estimator) RunBatchPi(groups [][]diffusion.Seed, market []bool) []diffusion.Estimate {
	return e.mc.RunBatchPi(groups, market)
}

// RunBatchMasked estimates each group under its own mask; withPi
// delegates to the MC engine.
func (e *Estimator) RunBatchMasked(groups [][]diffusion.Seed, masks [][]bool, withPi bool) []diffusion.Estimate {
	if withPi {
		return e.mc.RunBatchMasked(groups, masks, withPi)
	}
	out := make([]diffusion.Estimate, len(groups))
	for g, seeds := range groups {
		if e.preempted() {
			break
		}
		out[g] = e.estimate(seeds, masks[g], true)
	}
	return out
}

// SigmaBatch returns just σ per group — the solver's CELF hot path,
// and the sketch's reason to exist: one map probe per seed pair plus a
// covered-sample count, independent of cascade size.
func (e *Estimator) SigmaBatch(groups [][]diffusion.Seed) []float64 {
	out := make([]float64, len(groups))
	for g, seeds := range groups {
		if e.preempted() {
			break
		}
		out[g] = e.estimate(seeds, nil, false).Sigma
	}
	return out
}

// MeanWeights delegates to the MC engine (DRE's expectation step needs
// the end-of-campaign weighting vectors, which coverage cannot see).
func (e *Estimator) MeanWeights(seeds []diffusion.Seed, users []int) []float64 {
	return e.mc.MeanWeights(seeds, users)
}

// AttachGrid wires a sample-grid memoization view (DESIGN.md §10)
// into the embedded MC engine — the delegated π/MeanWeights/MCSI
// paths simulate real campaigns and memoize like the exact backend;
// the sketch's own coverage-counting answers never touch the grid
// cache (they are approximate and keyed in their own §9 lane).
func (e *Estimator) AttachGrid(v diffusion.GridCache) { e.mc.Grid = v }

// GridStats reports the embedded MC engine's cache-served work.
func (e *Estimator) GridStats() (hits, samplesSaved uint64) { return e.mc.GridStats() }

// SamplesDone reports the RR samples generated for this estimator's
// sketch (counted once) plus the embedded MC engine's campaigns — the
// work figure throughput accounting divides by.
func (e *Estimator) SamplesDone() uint64 {
	e.mu.Lock()
	var built uint64
	if e.sk != nil {
		built = uint64(e.sk.Theta)
	}
	e.mu.Unlock()
	return built + e.mc.SamplesDone()
}

// StateBytes reports the larger of the sketch index footprint and the
// largest state the MC engine put back to the problem's state pool.
func (e *Estimator) StateBytes() uint64 {
	e.mu.Lock()
	var b uint64
	if e.sk != nil {
		b = e.sk.Bytes()
	}
	e.mu.Unlock()
	if mcb := e.mc.StateBytes(); mcb > b {
		b = mcb
	}
	return b
}
