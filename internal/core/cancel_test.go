package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"imdpp/internal/diffusion"
)

func cancelOpts() Options {
	// big enough that the solve runs long past the cancellation point
	return Options{MC: 512, MCSI: 64, Seed: 1, CandidateCap: 256}
}

func TestSolveCtxPreCancelled(t *testing.T) {
	p := sampleProblem(t, 80, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := SolveCtx(ctx, p, cancelOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("pre-cancelled solve took %v", el)
	}
}

// cancelOnCall is an estimation backend that calls tick before each
// estimate and then runs it on the wrapped backend.
type cancelOnCall struct {
	Estimator
	tick func()
}

func (c cancelOnCall) Sigma(seeds []diffusion.Seed) float64 {
	c.tick()
	return c.Estimator.Sigma(seeds)
}

func (c cancelOnCall) Run(seeds []diffusion.Seed, market []bool, withPi bool) diffusion.Estimate {
	c.tick()
	return c.Estimator.Run(seeds, market, withPi)
}

func (c cancelOnCall) RunBatch(groups [][]diffusion.Seed, market []bool) []diffusion.Estimate {
	c.tick()
	return c.Estimator.RunBatch(groups, market)
}

func (c cancelOnCall) RunBatchPi(groups [][]diffusion.Seed, market []bool) []diffusion.Estimate {
	c.tick()
	return c.Estimator.RunBatchPi(groups, market)
}

func (c cancelOnCall) RunBatchMasked(groups [][]diffusion.Seed, masks [][]bool, withPi bool) []diffusion.Estimate {
	c.tick()
	return c.Estimator.RunBatchMasked(groups, masks, withPi)
}

func (c cancelOnCall) SigmaBatch(groups [][]diffusion.Seed) []float64 {
	c.tick()
	return c.Estimator.SigmaBatch(groups)
}

// TestSolveCtxCancelMidSolve: cancelling a running solve returns
// ctx.Err() within about one campaign simulation and leaks no
// goroutines from the estimator pool. The backend cancels on the
// solve's cancelCall-th estimate, just before the engine runs it, so
// the cancel lands inside the solve however fast the host runs it.
func TestSolveCtxCancelMidSolve(t *testing.T) {
	const cancelCall = 3 // of the 8 a whole solve makes: still selecting seeds
	p := sampleProblem(t, 80, 3)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		calls    atomic.Int64
		cancelAt time.Time // written by the solve before it returns
	)
	opt := cancelOpts()
	opt.Backend = func(p *diffusion.Problem, samples int, seed uint64, workers int) Estimator {
		return cancelOnCall{LocalEstimator(p, samples, seed, workers), func() {
			if calls.Add(1) == cancelCall {
				cancelAt = time.Now()
				cancel()
			}
		}}
	}
	type result struct {
		sol Solution
		err error
	}
	res := make(chan result, 1)
	go func() {
		sol, err := SolveCtx(ctx, p, opt)
		res <- result{sol, err}
	}()
	var r result
	select {
	case r = <-res:
	case <-time.After(5 * time.Second):
		t.Fatal("solve did not return")
	}
	if n := calls.Load(); n < cancelCall {
		t.Fatalf("the solve made %d estimates and ended before the cancel on estimate %d", n, cancelCall)
	}
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (sol σ=%v)", r.err, r.sol.Sigma)
	}
	if latency := time.Since(cancelAt); latency > 500*time.Millisecond {
		t.Fatalf("cancel latency %v, want ≤ 500ms", latency)
	}

	// estimator worker goroutines must all have exited
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancel: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSolveAdaptiveCtxPreCancelled(t *testing.T) {
	p := sampleProblem(t, 80, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveAdaptiveCtx(ctx, p, Options{MC: 8, CandidateCap: 32}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestSolveCtxDeterministicWithProgress: a context and a Progress
// callback must not change the result — the property the serving
// layer's cache keys rely on.
func TestSolveCtxDeterministicWithProgress(t *testing.T) {
	p := sampleProblem(t, 80, 3)
	opt := Options{MC: 8, MCSI: 4, Seed: 3, CandidateCap: 24}
	plain, err := Solve(p, opt)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}

	events := 0
	opt.Progress = func(ev ProgressEvent) {
		events++
		if ev.Phase == "" {
			t.Errorf("empty progress phase")
		}
	}
	opt.Workers = 3 // also vary the pool: §3 says result-invariant
	withCtx, err := SolveCtx(context.Background(), p, opt)
	if err != nil {
		t.Fatalf("SolveCtx: %v", err)
	}

	if plain.Sigma != withCtx.Sigma {
		t.Fatalf("σ differs: %v vs %v", plain.Sigma, withCtx.Sigma)
	}
	if len(plain.Seeds) != len(withCtx.Seeds) {
		t.Fatalf("seed counts differ: %d vs %d", len(plain.Seeds), len(withCtx.Seeds))
	}
	for i := range plain.Seeds {
		if plain.Seeds[i] != withCtx.Seeds[i] {
			t.Fatalf("seed %d differs: %+v vs %+v", i, plain.Seeds[i], withCtx.Seeds[i])
		}
	}
	if events == 0 {
		t.Fatal("no progress events emitted")
	}
}

func TestValidateRequestTypedErrors(t *testing.T) {
	p := sampleProblem(t, 80, 3)

	cases := []struct {
		name  string
		p     *diffusion.Problem
		opt   Options
		field string
	}{
		{"nil problem", nil, Options{}, "Problem"},
		{"negative MC", p, Options{MC: -1}, "MC"},
		{"negative MCSI", p, Options{MCSI: -2}, "MCSI"},
		{"negative workers", p, Options{Workers: -1}, "Workers"},
		{"bad MIOA threshold", p, Options{MIOAThreshold: 1.5}, "MIOAThreshold"},
		// (ε, δ) gate for the sketch backend: ε must be > 0 when set,
		// δ must lie in (0,1), and δ alone is meaningless.
		{"negative epsilon", p, Options{Epsilon: -0.1}, "Epsilon"},
		{"NaN epsilon", p, Options{Epsilon: math.NaN()}, "Epsilon"},
		{"negative delta", p, Options{Epsilon: 0.1, Delta: -0.5}, "Delta"},
		{"delta at one", p, Options{Epsilon: 0.1, Delta: 1}, "Delta"},
		{"NaN delta", p, Options{Epsilon: 0.1, Delta: math.NaN()}, "Delta"},
		{"delta without epsilon", p, Options{Delta: 0.05}, "Delta"},
	}
	for _, tc := range cases {
		err := ValidateRequest(tc.p, tc.opt)
		var inputErr *InputError
		if !errors.As(err, &inputErr) || inputErr.Field != tc.field {
			t.Errorf("%s: want InputError{%s}, got %v", tc.name, tc.field, err)
		}
	}

	if err := ValidateRequest(p, Options{}); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	// Valid sketch parameterisations pass the gate: δ defaults when
	// only ε is given (applied later in withDefaults).
	if err := ValidateRequest(p, Options{Epsilon: 0.05, Delta: 0.05}); err != nil {
		t.Errorf("valid (ε, δ) rejected: %v", err)
	}
	if err := ValidateRequest(p, Options{Epsilon: 0.05}); err != nil {
		t.Errorf("epsilon with defaulted delta rejected: %v", err)
	}

	bad := sampleProblem(t, 80, 3)
	bad.Budget = -1
	if err := ValidateRequest(bad, Options{}); !errors.Is(err, &InputError{Field: "Budget"}) {
		t.Errorf("negative budget: want InputError{Budget}, got %v", err)
	}
	// both Solve entry points share the gate
	if _, err := Solve(bad, Options{}); !errors.Is(err, &InputError{Field: "Budget"}) {
		t.Errorf("Solve: want InputError{Budget}, got %v", err)
	}
	if _, err := SolveAdaptive(bad, Options{}); !errors.Is(err, &InputError{Field: "Budget"}) {
		t.Errorf("SolveAdaptive: want InputError{Budget}, got %v", err)
	}
}
