package experiment

import (
	"fmt"

	"beepmis/internal/mis"
	"beepmis/internal/scenario"
)

// thm1Spec is Theorem 1's workload: the DISC'11 sweep, the Science'11
// schedule and the feedback algorithm on the union-of-cliques family
// for k = 4..16 — between 40 and 2176 nodes, cubically spaced as in the
// theorem's n^(1/3) construction — 50 trials each.
// scenarios/paper/thm1.json is this spec at seed 1.
func thm1Spec(cfg Config) scenario.Spec {
	ns := cfg.cliqueSizes([]int{4, 6, 8, 10, 12, 14, 16})
	return cfg.spec(sweep(scenario.GraphSpec{Family: "cliques"}, ns, mis.NameGlobalSweep, mis.NameAfek, mis.NameFeedback), 50)
}

// runThm1 validates Theorem 1 empirically: on the union-of-cliques
// family (k copies of K_d for d = 1..k), any preset global schedule —
// here the DISC'11 sweep and the Science'11 schedule — needs time that
// grows like log²n, while the feedback algorithm stays logarithmic.
func runThm1(cfg Config) (*Result, error) {
	rep, err := cfg.run(thm1Spec(cfg), nil)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "thm1",
		Title:  "union-of-cliques family: preset schedules vs feedback",
		XLabel: "n",
		YLabel: "time steps",
		Series: []Series{
			nodeSeries("globalsweep", unitsOf(rep, mis.NameGlobalSweep), rounds),
			nodeSeries("afek-original", unitsOf(rep, mis.NameAfek), rounds),
			nodeSeries("feedback", unitsOf(rep, mis.NameFeedback), rounds),
		},
	}
	appendFitNotes(res, "globalsweep", "afek-original", "feedback")
	return res, nil
}

// runThm6 validates Theorem 6 empirically: the feedback algorithm's
// expected beeps per node are bounded by a constant — around 1.1 on both
// G(n,1/2) and rectangular grids, per §5 of the paper.
func runThm6(cfg Config) (*Result, error) {
	rep, err := cfg.run(cfg.spec(sweep(gnp(0.5), cfg.sizes(intRange(25, 200, 25)), mis.NameFeedback), 200), nil)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "thm6",
		Title:  "feedback beeps per node: O(1) on G(n,1/2) and grids",
		XLabel: "n",
		YLabel: "beeps/node",
		Series: []Series{nodeSeries("gnp-half", rep.Units, beeps)},
	}

	// Square grids of comparable vertex counts, one spec per side.
	var grids []scenario.Spec
	for k := 5; k <= 14; k++ {
		if cfg.MaxN <= 0 || k*k <= cfg.MaxN {
			grids = append(grids, scenario.Spec{Graph: scenario.GraphSpec{Family: "grid", Rows: k, Cols: k}, Algorithm: mis.NameFeedback})
		}
	}
	units, err := cfg.runAll(grids, 200)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, nodeSeries("grid", units, beeps))

	for _, s := range res.Series {
		lo, hi := 0.0, 0.0
		for i, p := range s.Points {
			if i == 0 || p.Mean < lo {
				lo = p.Mean
			}
			if p.Mean > hi {
				hi = p.Mean
			}
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%s: beeps/node range [%.3f, %.3f] across sweep (paper: ≈1.1, flat)", s.Name, lo, hi))
	}
	return res, nil
}
