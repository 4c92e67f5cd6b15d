package core

import (
	"context"

	"imdpp/internal/cluster"
	"imdpp/internal/diffusion"
)

// SolveAdaptive runs the adaptive variant of Sec. V-D: no predefined
// budget allocation across promotions. Before each promotion t < T,
// TMI is exploited repeatedly, selecting one nominee with the largest
// MCP at a time, until an overlapping target market would promote
// substitutable items; the latest antagonism-causing nominee is
// rejected. DRE + TDSI then schedule the accepted nominees into
// timings {t, t+1}; once a candidate lands on t+1, the search for S_t
// stops and the remaining budget rolls forward. At t = T the best
// nominees under the remaining budget are all seeded at T.
//
// The function simulates the observe-then-select loop: after choosing
// S_t the diffusion of promotions 1..t is considered observed (the σ
// estimator replays all seeds chosen so far, which conditions the
// later selections on the earlier promotions exactly as Def. 1's
// conditional expectation requires).
func SolveAdaptive(p *diffusion.Problem, opt Options) (Solution, error) {
	return SolveAdaptiveCtx(context.Background(), p, opt)
}

// SolveAdaptiveCtx is SolveAdaptive with cancellation, under the same
// contract as SolveCtx: prompt abort returning ctx.Err(), and
// bit-identical results when the context never fires.
func SolveAdaptiveCtx(ctx context.Context, p *diffusion.Problem, opt Options) (Solution, error) {
	if err := ValidateRequest(p, opt); err != nil {
		return Solution{}, err
	}
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	s := newSolver(ctx, p, opt)
	remaining := p.Budget
	var all []diffusion.Seed

	universe := s.candidateUniverse()
	used := make(map[cluster.Nominee]bool)

	for t := 1; t <= p.T && remaining > 0; t++ {
		if err := s.err(); err != nil {
			return Solution{}, err
		}
		s.progress("adaptive", t, p.Budget-remaining, 0)
		if t == p.T {
			// final promotion: spend what is left greedily at T
			picked, err := s.greedyUnderBudget(universe, used, all, remaining, p.T)
			if err != nil {
				return Solution{}, err
			}
			for _, nm := range picked {
				all = append(all, diffusion.Seed{User: nm.User, Item: nm.Item, T: p.T})
				remaining -= p.CostOf(nm.User, nm.Item)
				used[nm] = true
			}
			break
		}
		accepted, err := s.adaptiveAccept(universe, used, all, remaining)
		if err != nil {
			return Solution{}, err
		}
		if len(accepted) == 0 {
			continue
		}
		// schedule accepted nominees into {t, t+1} by SI over the full
		// user set (the adaptive variant does not precompute markets)
		pool := accepted
		stop := false
		for len(pool) > 0 && !stop {
			if err := s.err(); err != nil {
				return Solution{}, err
			}
			// one batch per SI round: baseline + every (nominee, t/t+1)
			// candidate under shared sample streams
			type candRef struct {
				idx, t int
			}
			groups := [][]diffusion.Seed{diffusion.CloneSeeds(all)}
			refs := []candRef{{-1, 0}}
			for i, nm := range pool {
				for _, tt := range []int{t, t + 1} {
					if tt > p.T {
						continue
					}
					groups = append(groups, diffusion.WithSeed(all, diffusion.Seed{User: nm.User, Item: nm.Item, T: tt}))
					refs = append(refs, candRef{i, tt})
				}
			}
			ests := s.estSI.RunBatchPi(groups, nil)
			s.stats.SIEvals += len(groups)
			base := ests[0]
			bestSI, bestIdx, bestT := -1e18, -1, t
			for j := 1; j < len(ests); j++ {
				si := ests[j].Sigma - base.Sigma + float64(p.T-refs[j].t+1)/float64(p.T)*(ests[j].Pi-base.Pi)
				if si > bestSI {
					bestSI, bestIdx, bestT = si, refs[j].idx, refs[j].t
				}
			}
			if bestIdx < 0 {
				break
			}
			nm := pool[bestIdx]
			if bestT > t {
				// Sec. V-D: once the best candidate prefers t+1, the
				// remaining nominees suit later promotions too.
				stop = true
				break
			}
			all = append(all, diffusion.Seed{User: nm.User, Item: nm.Item, T: bestT})
			remaining -= p.CostOf(nm.User, nm.Item)
			used[nm] = true
			pool = append(pool[:bestIdx], pool[bestIdx+1:]...)
		}
	}

	sigma := s.sigma(all)
	if err := s.err(); err != nil {
		return Solution{}, err
	}
	s.stats.SamplesSimulated = s.est.SamplesDone() + s.estSI.SamplesDone()
	s.collectGridStats()
	s.stats.StateBytesPerWorker = max(s.est.StateBytes(), s.estSI.StateBytes())
	sol := Solution{Seeds: all, Cost: p.SeedCost(all), Sigma: sigma, Stats: s.stats}
	return sol, nil
}

// adaptiveAccept grows a nominee set one-highest-MCP-at-a-time until
// adding one would make overlapping markets promote substitutable
// items; that nominee is rejected and growth stops.
func (s *solver) adaptiveAccept(universe []cluster.Nominee, used map[cluster.Nominee]bool, cur []diffusion.Seed, budget float64) ([]cluster.Nominee, error) {
	p := s.p
	var accepted []cluster.Nominee
	spent := 0.0
	base := s.sigma(cur)
	for {
		if err := s.err(); err != nil {
			return nil, err
		}
		// batch the whole eligible universe for this growth step
		var (
			groups [][]diffusion.Seed
			idxs   []int
		)
		for i, nm := range universe {
			if used[nm] {
				continue
			}
			c := p.CostOf(nm.User, nm.Item)
			if c > budget-spent {
				continue
			}
			dup := false
			for _, a := range accepted {
				if a == nm {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			cand := make([]diffusion.Seed, 0, len(cur)+1+len(accepted))
			cand = append(cand, cur...)
			cand = append(cand, diffusion.Seed{User: nm.User, Item: nm.Item, T: 1})
			for _, a := range accepted {
				cand = append(cand, diffusion.Seed{User: a.User, Item: a.Item, T: 1})
			}
			groups = append(groups, cand)
			idxs = append(idxs, i)
		}
		bestRatio, bestIdx := 0.0, -1
		for j, sig := range s.sigmaBatch(groups) {
			nm := universe[idxs[j]]
			gain := sig - base
			if r := gain / (p.CostOf(nm.User, nm.Item) + 1e-12); r > bestRatio {
				bestRatio, bestIdx = r, idxs[j]
			}
		}
		if bestIdx < 0 || bestRatio <= 0 {
			break
		}
		nm := universe[bestIdx]
		if s.causesAntagonism(accepted, nm) {
			break // reject the antagonism-causing nominee and stop
		}
		accepted = append(accepted, nm)
		spent += p.CostOf(nm.User, nm.Item)
		if len(accepted) >= 8 {
			break // per-promotion cap keeps the adaptive loop tractable
		}
	}
	return accepted, nil
}

// causesAntagonism reports whether adding nm would let socially
// overlapping nominees promote substitutable items.
func (s *solver) causesAntagonism(accepted []cluster.Nominee, nm cluster.Nominee) bool {
	for _, a := range accepted {
		if a.Item == nm.Item {
			continue
		}
		rc, rs := s.p.PIN.RelStatic(a.Item, nm.Item)
		if rs > rc && s.p.G.HopDistance(a.User, nm.User) >= 0 && s.p.G.HopDistance(a.User, nm.User) <= 2 {
			return true
		}
	}
	return false
}

// greedyUnderBudget picks nominees by MCP with all timings fixed at
// promotion tFix until the budget runs out.
func (s *solver) greedyUnderBudget(universe []cluster.Nominee, used map[cluster.Nominee]bool, cur []diffusion.Seed, budget float64, tFix int) ([]cluster.Nominee, error) {
	p := s.p
	var picked []cluster.Nominee
	seeds := append([]diffusion.Seed(nil), cur...)
	base := s.sigma(seeds)
	spent := 0.0
	for {
		if err := s.err(); err != nil {
			return nil, err
		}
		// batch every eligible candidate of this greedy round
		var (
			groups [][]diffusion.Seed
			idxs   []int
		)
		for i, nm := range universe {
			if used[nm] {
				continue
			}
			skip := false
			for _, pk := range picked {
				if pk == nm {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			c := p.CostOf(nm.User, nm.Item)
			if c > budget-spent {
				continue
			}
			groups = append(groups, diffusion.WithSeed(seeds, diffusion.Seed{User: nm.User, Item: nm.Item, T: tFix}))
			idxs = append(idxs, i)
		}
		bestRatio, bestIdx := 0.0, -1
		var bestSigma float64
		for j, sig := range s.sigmaBatch(groups) {
			nm := universe[idxs[j]]
			if r := (sig - base) / (p.CostOf(nm.User, nm.Item) + 1e-12); r > bestRatio {
				bestRatio, bestIdx, bestSigma = r, idxs[j], sig
			}
		}
		if bestIdx < 0 || bestRatio <= 0 {
			break
		}
		nm := universe[bestIdx]
		picked = append(picked, nm)
		seeds = append(seeds, diffusion.Seed{User: nm.User, Item: nm.Item, T: tFix})
		spent += p.CostOf(nm.User, nm.Item)
		base = bestSigma
	}
	return picked, nil
}
