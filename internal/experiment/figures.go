package experiment

import (
	"fmt"
	"math"

	"beepmis/internal/mis"
	"beepmis/internal/scenario"
	"beepmis/internal/stats"
)

// fig3Spec is Figure 3's workload: the global sweeping schedule and the
// feedback algorithm on G(n,1/2) for n = 100..1000, 100 trials each.
// scenarios/paper/fig3.json is this spec at seed 1.
func fig3Spec(cfg Config) scenario.Spec {
	return cfg.spec(sweep(gnp(0.5), cfg.sizes(intRange(100, 1000, 100)), mis.NameGlobalSweep, mis.NameFeedback), 100)
}

// runFig3 regenerates Figure 3: mean number of time steps over 100
// trials on G(n,1/2) for n = 100..1000, for the global sweeping schedule
// (upper curve, ≈ log₂²n) and the feedback algorithm (lower curve,
// ≈ 2.5·log₂n). The dashed reference curves of the figure are emitted as
// Reference series.
func runFig3(cfg Config) (*Result, error) {
	rep, err := cfg.run(fig3Spec(cfg), nil)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig3",
		Title:  "mean time steps on G(n,1/2)",
		XLabel: "n",
		YLabel: "time steps",
		Series: []Series{
			nodeSeries("globalsweep", unitsOf(rep, mis.NameGlobalSweep), rounds),
			nodeSeries("feedback", unitsOf(rep, mis.NameFeedback), rounds),
		},
	}
	ns := res.Series[0].xs()
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

// fig5Spec is Figure 5's workload: the global sweep, the feedback
// algorithm and the Science'11 schedule on G(n,1/2) for n = 25..200,
// 200 trials each. scenarios/paper/fig5.json is this spec at seed 1.
func fig5Spec(cfg Config) scenario.Spec {
	return cfg.spec(sweep(gnp(0.5), cfg.sizes(intRange(25, 200, 25)), mis.NameGlobalSweep, mis.NameFeedback, mis.NameAfek), 200)
}

// runFig5 regenerates Figure 5: mean number of beeps per node over 200
// trials on G(n,1/2) for n = 25..200. The paper reports the feedback
// algorithm flat around 1.1 beeps per node and the sweeping schedule
// growing with n.
func runFig5(cfg Config) (*Result, error) {
	rep, err := cfg.run(fig5Spec(cfg), nil)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig5",
		Title:  "mean beeps per node on G(n,1/2)",
		XLabel: "n",
		YLabel: "beeps/node",
		Series: []Series{
			nodeSeries("globalsweep", unitsOf(rep, mis.NameGlobalSweep), beeps),
			nodeSeries("feedback", unitsOf(rep, mis.NameFeedback), beeps),
			nodeSeries("afek-original", unitsOf(rep, mis.NameAfek), beeps),
		},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("afek-original beeps/node max over sweep = %.3f (§5: bounded by a constant when probabilities derive from n and D)", res.Series[2].maxMean()),
		fmt.Sprintf("feedback beeps/node max over sweep = %.3f (paper: ≈1.1, constant)", res.Series[1].maxMean()))
	return res, nil
}

// xs returns the series' X coordinates.
func (s Series) xs() []float64 {
	xs := make([]float64, len(s.Points))
	for i, p := range s.Points {
		xs[i] = p.X
	}
	return xs
}

// maxMean returns the largest point mean of the series (0 if empty).
func (s Series) maxMean() float64 {
	m := 0.0
	for _, p := range s.Points {
		m = max(m, p.Mean)
	}
	return m
}

// referenceCurve builds an analytic Reference series over the sweep.
func referenceCurve(name string, ns []float64, f func(n float64) float64) Series {
	s := Series{Name: name, Reference: true}
	for _, n := range ns {
		s.Points = append(s.Points, Point{X: n, Mean: f(n)})
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
		xs := s.xs()
		ys := make([]float64, len(s.Points))
		for i, p := range s.Points {
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
