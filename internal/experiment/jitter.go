package experiment

import (
	"fmt"

	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
)

var _ = register("ablate-jitter",
	"Robustness (§6): update factors varying per node and per time step", runAblateJitter)

// runAblateJitter tests the strongest form of the paper's §6 robustness
// claim: the update factor "may vary between nodes and over time". Each
// probability adjustment draws a fresh factor uniformly from [lo, hi];
// per-node random initial probabilities are layered on top. Rounds on
// G(n,1/2) should track the fixed-factor baseline within a modest
// constant.
func runAblateJitter(cfg Config) (*Result, error) {
	ns := cfg.sizes(intRange(100, 500, 100))
	trials := cfg.trials(50)
	master := rng.New(cfg.Seed)

	res := &Result{
		ID:     "ablate-jitter",
		Title:  "feedback with per-node, per-step random factors on G(n,1/2)",
		XLabel: "n",
		YLabel: "time steps",
	}
	variants := []struct {
		name string
		cfg  mis.VariableConfig
	}{
		{"fixed factor 2 (paper)", mis.VariableConfig{}},
		{"factor ~ U[1.5, 3]", mis.VariableConfig{FactorLo: 1.5, FactorHi: 3}},
		{"factor ~ U[1.2, 5]", mis.VariableConfig{FactorLo: 1.2, FactorHi: 5}},
		{"U[1.5,3] + random p0", mis.VariableConfig{
			FactorLo: 1.5, FactorHi: 3,
			PerNode: func(id int) float64 { return 1 / float64(int(2)<<uint(id%5)) },
		}},
	}
	for vi, variant := range variants {
		factory, err := mis.NewFeedbackVariable(variant.cfg)
		if err != nil {
			return nil, err
		}
		series := Series{Name: variant.name}
		for si, n := range ns {
			// Per-step random factors draw from the node stream inside
			// Observe; there is no columnar kernel for that, so the nil
			// bulk runs the per-node automata through the adapter.
			pt, err := sweepPoint(cfg, res, fmt.Sprintf("%s n=%d", variant.name, n), master, vi*1000+si, trials, 0, factory, nil, gnpHalf(n), roundsMetric)
			if err != nil {
				return nil, err
			}
			pt.X = float64(n)
			series.Points = append(series.Points, pt)
		}
		res.Series = append(res.Series, series)
	}
	// Every jittered variant must still produce valid MIS outputs — a
	// direct spot-check beyond round counts.
	factory, err := mis.NewFeedbackVariable(variants[2].cfg)
	if err != nil {
		return nil, err
	}
	bad := make([]bool, trials)
	if err := ForTrials(cfg.EffectiveWorkers(), trials, func(trial int) error {
		g := graph.GNP(200, 0.5, master.Stream(trialKey(9000, trial, 1)))
		r, err := sim.Run(g, factory, master.Stream(trialKey(9000, trial, 2)), cfg.simOpts(nil))
		if err != nil {
			return err
		}
		bad[trial] = graph.VerifyMIS(g, r.InMIS) != nil
		return nil
	}); err != nil {
		return nil, err
	}
	invalid := countTrue(bad)
	res.Notes = append(res.Notes,
		fmt.Sprintf("validity spot-check at n=200 under U[1.2,5]: %d/%d invalid (must be 0)", invalid, trials),
		"paper §6: factors may vary between nodes and over time without losing O(log n)")
	return res, nil
}
