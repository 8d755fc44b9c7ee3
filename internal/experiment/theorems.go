package experiment

import (
	"fmt"

	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
)

// runThm1 validates Theorem 1 empirically: on the union-of-cliques
// family (k copies of K_d for d = 1..k), any preset global schedule —
// here the DISC'11 sweep and the Science'11 schedule — needs time that
// grows like log²n, while the feedback algorithm stays logarithmic.
func runThm1(cfg Config) (*Result, error) {
	// k = 4..16 gives n = k²(k+1)/2 between 40 and 2176, cubically
	// spaced as in the theorem's n^(1/3) construction.
	ks := []int{4, 6, 8, 10, 12, 14, 16}
	var ns []int
	for _, k := range ks {
		ns = append(ns, k*k*(k+1)/2)
	}
	ns = cfg.sizes(ns)
	trials := cfg.trials(50)
	master := rng.New(cfg.Seed)

	res := &Result{
		ID:     "thm1",
		Title:  "union-of-cliques family: preset schedules vs feedback",
		XLabel: "n",
		YLabel: "time steps",
	}
	algos := []struct {
		name string
		spec mis.Spec
	}{
		{"globalsweep", mis.Spec{Name: mis.NameGlobalSweep}},
		{"afek-original", mis.Spec{Name: mis.NameAfek}},
		{"feedback", mis.Spec{Name: mis.NameFeedback}},
	}
	for ai, algo := range algos {
		factory, bulk, err := mis.NewFactories(algo.spec)
		if err != nil {
			return nil, err
		}
		series := Series{Name: algo.name}
		for si, n := range ns {
			n := n
			pt, err := sweepPoint(cfg, res, fmt.Sprintf("%s n=%d", algo.name, n), master, ai*1000+si, trials, 0, factory, bulk,
				func(*rng.Source) *graph.Graph { return graph.CliqueFamily(n) },
				roundsMetric)
			if err != nil {
				return nil, err
			}
			pt.X = float64(n)
			series.Points = append(series.Points, pt)
		}
		res.Series = append(res.Series, series)
	}
	appendFitNotes(res, "globalsweep", "afek-original", "feedback")
	return res, nil
}

// runThm6 validates Theorem 6 empirically: the feedback algorithm's
// expected beeps per node are bounded by a constant — around 1.1 on both
// G(n,1/2) and rectangular grids, per §5 of the paper.
func runThm6(cfg Config) (*Result, error) {
	trials := cfg.trials(200)
	master := rng.New(cfg.Seed)
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "thm6",
		Title:  "feedback beeps per node: O(1) on G(n,1/2) and grids",
		XLabel: "n",
		YLabel: "beeps/node",
	}

	gnpSizes := cfg.sizes(intRange(25, 200, 25))
	gnpSeries := Series{Name: "gnp-half"}
	for si, n := range gnpSizes {
		pt, err := sweepPoint(cfg, res, fmt.Sprintf("gnp n=%d", n), master, si, trials, 0, factory, bulk, gnpHalf(n), beepsMetric)
		if err != nil {
			return nil, err
		}
		pt.X = float64(n)
		gnpSeries.Points = append(gnpSeries.Points, pt)
	}
	res.Series = append(res.Series, gnpSeries)

	// Square grids of comparable vertex counts.
	gridSeries := Series{Name: "grid"}
	var gridSizes []int
	for k := 5; k <= 14; k++ {
		gridSizes = append(gridSizes, k)
	}
	for si, k := range gridSizes {
		k := k
		if cfg.MaxN > 0 && k*k > cfg.MaxN {
			continue
		}
		pt, err := sweepPoint(cfg, res, fmt.Sprintf("grid %dx%d", k, k), master, 1000+si, trials, 0, factory, bulk,
			func(*rng.Source) *graph.Graph { return graph.Grid(k, k) },
			beepsMetric)
		if err != nil {
			return nil, err
		}
		pt.X = float64(k * k)
		gridSeries.Points = append(gridSeries.Points, pt)
	}
	res.Series = append(res.Series, gridSeries)

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
