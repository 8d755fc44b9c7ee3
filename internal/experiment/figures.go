package experiment

import (
	"fmt"
	"math"

	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
	"beepmis/internal/stats"
)

// roundsMetric measures the paper's Figure 3 quantity.
func roundsMetric(res *sim.Result, _ *graph.Graph) float64 { return float64(res.Rounds) }

// beepsMetric measures the paper's Figure 5 quantity.
func beepsMetric(res *sim.Result, _ *graph.Graph) float64 { return res.MeanBeepsPerNode() }

// gnpHalf builds the paper's workload G(n, 1/2).
func gnpHalf(n int) func(src *rng.Source) *graph.Graph {
	return func(src *rng.Source) *graph.Graph { return graph.GNP(n, 0.5, src) }
}

// runFig3 regenerates Figure 3: mean number of time steps over 100
// trials on G(n,1/2) for n = 100..1000, for the global sweeping schedule
// (upper curve, ≈ log₂²n) and the feedback algorithm (lower curve,
// ≈ 2.5·log₂n). The dashed reference curves of the figure are emitted as
// Reference series.
func runFig3(cfg Config) (*Result, error) {
	ns := cfg.sizes(intRange(100, 1000, 100))
	trials := cfg.trials(100)
	master := rng.New(cfg.Seed)

	res := &Result{
		ID:     "fig3",
		Title:  "mean time steps on G(n,1/2)",
		XLabel: "n",
		YLabel: "time steps",
	}
	algos := []struct {
		name string
		spec mis.Spec
	}{
		{"globalsweep", mis.Spec{Name: mis.NameGlobalSweep}},
		{"feedback", mis.Spec{Name: mis.NameFeedback}},
	}
	for ai, algo := range algos {
		factory, bulk, err := mis.NewFactories(algo.spec)
		if err != nil {
			return nil, err
		}
		series := Series{Name: algo.name}
		for si, n := range ns {
			pt, err := sweepPoint(cfg, res, fmt.Sprintf("%s n=%d", algo.name, n), master, ai*1000+si, trials, 0, factory, bulk, gnpHalf(n), roundsMetric)
			if err != nil {
				return nil, err
			}
			pt.X = float64(n)
			series.Points = append(series.Points, pt)
		}
		res.Series = append(res.Series, series)
	}
	res.Series = append(res.Series,
		referenceCurve("log2²n (paper's upper dashed line)", ns, func(n float64) float64 {
			l := math.Log2(n)
			return l * l
		}),
		referenceCurve("2.5·log2n (paper's lower dotted line)", ns, func(n float64) float64 {
			return 2.5 * math.Log2(n)
		}),
	)
	appendFitNotes(res, "globalsweep", "feedback")
	return res, nil
}

// runFig5 regenerates Figure 5: mean number of beeps per node over 200
// trials on G(n,1/2) for n = 25..200. The paper reports the feedback
// algorithm flat around 1.1 beeps per node and the sweeping schedule
// growing with n.
func runFig5(cfg Config) (*Result, error) {
	ns := cfg.sizes(intRange(25, 200, 25))
	trials := cfg.trials(200)
	master := rng.New(cfg.Seed)

	res := &Result{
		ID:     "fig5",
		Title:  "mean beeps per node on G(n,1/2)",
		XLabel: "n",
		YLabel: "beeps/node",
	}
	algos := []struct {
		name string
		spec mis.Spec
	}{
		{"globalsweep", mis.Spec{Name: mis.NameGlobalSweep}},
		{"feedback", mis.Spec{Name: mis.NameFeedback}},
		{"afek-original", mis.Spec{Name: mis.NameAfek}},
	}
	for ai, algo := range algos {
		factory, bulk, err := mis.NewFactories(algo.spec)
		if err != nil {
			return nil, err
		}
		series := Series{Name: algo.name}
		for si, n := range ns {
			pt, err := sweepPoint(cfg, res, fmt.Sprintf("%s n=%d", algo.name, n), master, ai*1000+si, trials, 0, factory, bulk, gnpHalf(n), beepsMetric)
			if err != nil {
				return nil, err
			}
			pt.X = float64(n)
			series.Points = append(series.Points, pt)
		}
		res.Series = append(res.Series, series)
	}
	if af, ok := findSeries(res, "afek-original"); ok {
		maxMean := 0.0
		for _, p := range af.Points {
			if p.Mean > maxMean {
				maxMean = p.Mean
			}
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"afek-original beeps/node max over sweep = %.3f (§5: bounded by a constant when probabilities derive from n and D)", maxMean))
	}
	if fb, ok := findSeries(res, "feedback"); ok {
		maxMean := 0.0
		for _, p := range fb.Points {
			if p.Mean > maxMean {
				maxMean = p.Mean
			}
		}
		res.Notes = append(res.Notes, fmt.Sprintf("feedback beeps/node max over sweep = %.3f (paper: ≈1.1, constant)", maxMean))
	}
	return res, nil
}

// referenceCurve builds an analytic Reference series over the sweep.
func referenceCurve(name string, ns []int, f func(n float64) float64) Series {
	s := Series{Name: name, Reference: true}
	for _, n := range ns {
		s.Points = append(s.Points, Point{X: float64(n), Mean: f(float64(n))})
	}
	return s
}

// findSeries locates a series by name.
func findSeries(r *Result, name string) (Series, bool) {
	for _, s := range r.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// appendFitNotes fits a·log₂n+b and a·log₂²n+b to the named series and
// records which model explains each better — the quantitative version of
// "who wins, by what shape".
func appendFitNotes(r *Result, names ...string) {
	for _, name := range names {
		s, ok := findSeries(r, name)
		if !ok || len(s.Points) < 2 {
			continue
		}
		xs := make([]float64, len(s.Points))
		ys := make([]float64, len(s.Points))
		for i, p := range s.Points {
			xs[i] = p.X
			ys[i] = p.Mean
		}
		logFit, err1 := stats.FitLogN(xs, ys)
		log2Fit, err2 := stats.FitLog2N(xs, ys)
		if err1 != nil || err2 != nil {
			continue
		}
		best := "a·log2(n)+b"
		if log2Fit.R2 > logFit.R2 {
			best = "a·log2²(n)+b"
		}
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s: fit a·log2(n)+b → %s; fit a·log2²(n)+b → %s; better: %s",
			name, logFit, log2Fit, best))
	}
}
