package exp

import (
	"fmt"

	"imdpp/internal/core"
	"imdpp/internal/dataset"
	"imdpp/internal/diffusion"
	"imdpp/internal/kg"
	"imdpp/internal/pin"
)

// Fig13 reproduces the meta-graph sensitivity test (Fig. 13): σ of
// Dysim with 1, 2 and 3 meta-graphs (b=100, T=3) on one dataset.
// With k = 1 only the strongest complementary meta-graph is active;
// k = 2 adds the substitutable meta-graph; k = 3 adds the second
// complementary one. Expected shape: σ grows with the number of
// meta-graphs (better-captured perception).
func Fig13(cfg Config, dsName string) (*Figure, error) {
	cfg = cfg.withDefaults()
	d, err := datasetByName(dsName, cfg.Scale)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "Fig13-" + dsName, Title: "sigma vs #meta-graphs (b=100, T=3, " + dsName + ")", XLabel: "#meta-graphs", YLabel: "sigma"}
	s := Series{Name: AlgoDysim}
	for k := 1; k <= 3; k++ {
		p, err := problemWithMetaSubset(d, k, 100, 3)
		if err != nil {
			return nil, fmt.Errorf("Fig13 %s k=%d: %w", dsName, k, err)
		}
		eval := cfg.evaluator(p)
		sol, err := core.Solve(p, core.Options{
			MC: cfg.SolverMC, MCSI: cfg.SolverMCSI,
			CandidateCap: cfg.CandidateCap, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("Fig13 %s k=%d: %w", dsName, k, err)
		}
		s.X = append(s.X, float64(k))
		s.Y = append(s.Y, eval.Sigma(sol.Seeds))
	}
	fig.Series = []Series{s}
	renderFigure(cfg.Out, fig)
	return fig, nil
}

// problemWithMetaSubset rebuilds the dataset's problem with the first
// k meta-graphs active: k=1 → {mC1}; k=2 → {mC1, mS1}; k≥3 → {mC1,
// mC2, mS1}. The variant gets a substrate of its own, so the dataset's
// problem, and every clone sharing its substrate, keep their PIN.
func problemWithMetaSubset(d *dataset.Dataset, k int, budget float64, T int) (*diffusion.Problem, error) {
	var metaC, metaS []*kg.MetaGraph
	switch {
	case k <= 1:
		metaC = d.MetaC[:1]
	case k == 2:
		metaC = d.MetaC[:1]
		metaS = d.MetaS[:1]
	default:
		n := 2
		if n > len(d.MetaC) {
			n = len(d.MetaC)
		}
		metaC = d.MetaC[:n]
		metaS = d.MetaS[:1]
	}
	model, err := pin.NewModel(d.Problem.KG, metaC, metaS, nil)
	if err != nil {
		return nil, err
	}
	s := d.Problem.Substrate
	p := *d.Problem
	p.Substrate = &diffusion.Substrate{G: s.G, KG: s.KG, PIN: model, Importance: s.Importance, BasePref: s.BasePref, Cost: s.Cost}
	p.Budget = budget
	p.T = T
	return &p, nil
}

// Fig14 reproduces the θ sensitivity test (Fig. 14): σ of Dysim as the
// common-user threshold for grouping target markets sweeps (b=1000,
// T=20). The paper observes an interior optimum: very small θ
// over-groups (short promotional durations), very large θ lets
// overlapping markets promote substitutable items to common users.
// θ values are scaled to our dataset sizes.
func Fig14(cfg Config, dsName string, thetas []int) (*Figure, error) {
	cfg = cfg.withDefaults()
	if len(thetas) == 0 {
		thetas = []int{1, 2, 4, 8, 16}
	}
	d, err := datasetByName(dsName, cfg.Scale)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "Fig14-" + dsName, Title: "sigma vs theta (b=1000, T=20, " + dsName + ")", XLabel: "theta", YLabel: "sigma"}
	s := Series{Name: AlgoDysim}
	for _, th := range thetas {
		p := d.Clone(1000, 20)
		eval := cfg.evaluator(p)
		theta := th
		seeds, _, err := cfg.dysimWith(p, func(o *core.Options) { o.Theta = theta })
		if err != nil {
			return nil, fmt.Errorf("Fig14 %s θ=%d: %w", dsName, th, err)
		}
		s.X = append(s.X, float64(th))
		s.Y = append(s.Y, eval.Sigma(seeds))
	}
	fig.Series = []Series{s}
	renderFigure(cfg.Out, fig)
	return fig, nil
}
