package core

import (
	"context"

	"imdpp/internal/diffusion"
	"imdpp/internal/sketch"
)

// Estimator is the σ/π estimation surface the Dysim solver consumes —
// everything Solve, SolveAdaptiveCtx and TDSI ask of a Monte-Carlo
// backend, and nothing more. *diffusion.Estimator is the Monte-Carlo
// implementation, local or sharded: internal/shard plugs its worker
// fleet in as the engine's sample producer (diffusion.Sampler), which
// partitions the (group × sample) grid across worker processes; the
// RR-sketch hybrid (internal/sketch) is the approximate second
// implementation. Any implementation MUST honour the
// DESIGN.md §3 determinism contract: results are a pure function of
// (the problem, the current master seed, the sample count), and Bind's
// context may abort an evaluation but never reorder it — that is what
// lets the solver, the serving layer's content-addressed cache and the
// golden tests treat local and sharded backends interchangeably.
type Estimator interface {
	// Bind attaches a cancellation context; in-flight and future
	// evaluations stop promptly once it fires, returning garbage the
	// caller must discard after checking the context.
	Bind(ctx context.Context)
	// Reseed replaces the master seed for subsequent estimates (the
	// winner's-curse reseed between greedy rounds).
	Reseed(seed uint64)
	// Sigma returns the Monte-Carlo estimate of σ(seeds).
	Sigma(seeds []diffusion.Seed) float64
	// Run estimates one seed group (market nil = all users; withPi
	// adds the future-adoption likelihood π).
	Run(seeds []diffusion.Seed, market []bool, withPi bool) diffusion.Estimate
	// RunBatch estimates every group under one shared market mask with
	// common random numbers across groups.
	RunBatch(groups [][]diffusion.Seed, market []bool) []diffusion.Estimate
	// RunBatchPi is RunBatch with π evaluated per group.
	RunBatchPi(groups [][]diffusion.Seed, market []bool) []diffusion.Estimate
	// RunBatchMasked estimates each group under its own market mask
	// (masks[g] may be nil), optionally with π.
	RunBatchMasked(groups [][]diffusion.Seed, masks [][]bool, withPi bool) []diffusion.Estimate
	// SigmaBatch returns just the σ of every group.
	SigmaBatch(groups [][]diffusion.Seed) []float64
	// MeanWeights returns the expected end-of-campaign meta-graph
	// weighting vector averaged over users (the DRE expectation step).
	MeanWeights(seeds []diffusion.Seed, users []int) []float64
	// SamplesDone reports cumulative Monte-Carlo campaigns simulated,
	// for throughput accounting.
	SamplesDone() uint64
	// StateBytes reports the largest per-worker simulation state
	// footprint the backend used, measured when a state goes back to
	// its problem's pool (0 is fine for backends that cannot observe
	// it).
	StateBytes() uint64
}

// The Monte-Carlo engine is the reference Estimator; the RR-sketch
// hybrid is the approximate second implementation.
var (
	_ Estimator = (*diffusion.Estimator)(nil)
	_ Estimator = (*sketch.Estimator)(nil)
)

// EstimatorFactory constructs the estimation backend for one solver
// run: the problem, the per-estimate sample count, the master seed and
// the worker bound (0 → GOMAXPROCS) a local engine would use. A solver
// run constructs two backends (the MC selection estimator and the MCSI
// scheduling estimator) through the same factory.
type EstimatorFactory func(p *diffusion.Problem, samples int, seed uint64, workers int) Estimator

// LocalEstimator is the default EstimatorFactory: the in-process batch
// engine of internal/diffusion.
func LocalEstimator(p *diffusion.Problem, samples int, seed uint64, workers int) Estimator {
	e := diffusion.NewEstimator(p, samples, seed)
	e.Workers = workers
	return e
}

// SketchBackend returns an EstimatorFactory over the RR-sketch hybrid
// estimator (internal/sketch): σ-only evaluations answered by coverage
// counting under cfg's (ε, δ) contract, π/MeanWeights delegated to an
// embedded MC engine. The serving layer passes a shared sketch cache
// through cfg; library callers may leave it nil.
func SketchBackend(cfg sketch.Config) EstimatorFactory {
	return func(p *diffusion.Problem, samples int, seed uint64, workers int) Estimator {
		return sketch.New(p, cfg, samples, seed, workers)
	}
}

// backend resolves the configured factory: an explicit Backend wins,
// then Epsilon > 0 selects the sketch hybrid, then the local engine.
func (o Options) backend() EstimatorFactory {
	if o.Backend != nil {
		return o.Backend
	}
	if o.Epsilon > 0 {
		return SketchBackend(sketch.Config{Epsilon: o.Epsilon, Delta: o.Delta})
	}
	return LocalEstimator
}
