package experiment

import (
	"fmt"
	"math"

	"beepmis/internal/mis"
	"beepmis/internal/scenario"
)

// Extension experiments beyond the paper's figures: the asynchronous
// wake-up robustness check and the O(log n) claim across graph
// families. (The §5 bit-complexity comparison, bits, sits with the
// message-passing baselines.)
var (
	_ = register("wakeup", "Extension: staggered node wake-up (Afek et al. DISC'11 robustness dimension)", runWakeup)
	_ = register("families", "Extension: feedback stays O(log n) across graph families", runFamilies)
)

// runWakeup staggers node start times uniformly over a window W and
// measures completion time and validity. Completion should track
// W + O(log n): the algorithm loses nothing to asynchronous starts, the
// robustness dimension Afek et al. (DISC'11) designed for.
func runWakeup(cfg Config) (*Result, error) {
	n := cfg.size(300)
	res := &Result{
		ID:     "wakeup",
		Title:  fmt.Sprintf("staggered wake-up on G(%d,1/2)", n),
		XLabel: "wake window W",
		YLabel: "completion round",
	}
	series := Series{Name: "completion"}
	excess := Series{Name: "completion − W"}
	windows := []int{1, 10, 25, 50, 100}
	invalid := 0
	for _, w := range windows {
		s := sweep(gnp(0.5), []int{n}, mis.NameFeedback)
		s.WakeWindow = w
		rep, err := cfg.run(cfg.spec(s, 50), nil)
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", w, err)
		}
		u := rep.Units[0]
		if !u.Verified {
			invalid++
		}
		series.Points = append(series.Points, aggPoint(float64(w), u.Rounds, u.Trials))
		excess.Points = append(excess.Points, Point{X: float64(w), Mean: u.Rounds.Mean - float64(w), Std: u.Rounds.Std, Trials: u.Trials})
	}
	res.Series = append(res.Series, series, excess)
	res.Notes = append(res.Notes,
		fmt.Sprintf("windows with an invalid result: %d of %d (must be 0 — persistent announcements guarantee safety)", invalid, len(windows)),
		"completion ≈ W + O(log n): staggered starts cost only the stagger itself")
	return res, nil
}

// runFamilies sweeps the feedback algorithm across structurally
// different graph families at matched sizes, checking that the O(log n)
// round bound — proved for any graph — holds with similar constants
// everywhere. Families parameterised by n alone are one spec each; the
// grid (√n a side) and the unit-disk graph (radius tuned per n) are one
// spec per size.
func runFamilies(cfg Config) (*Result, error) {
	ns := cfg.sizes([]int{64, 144, 256, 400, 576, 784, 1024})
	feedback := func(g scenario.GraphSpec) scenario.Spec { return sweep(g, ns, mis.NameFeedback) }
	families := []struct {
		name  string
		specs []scenario.Spec
	}{
		{"gnp-half", []scenario.Spec{feedback(gnp(0.5))}},
		{"grid", perSize(ns, func(n int) scenario.Spec {
			k := int(math.Sqrt(float64(n)))
			return scenario.Spec{Graph: scenario.GraphSpec{Family: "grid", Rows: k, Cols: k}, Algorithm: mis.NameFeedback}
		})},
		{"tree", []scenario.Spec{feedback(scenario.GraphSpec{Family: "tree"})}},
		{"ba-3", []scenario.Spec{feedback(scenario.GraphSpec{Family: "barabasialbert", M: 3})}},
		// Radius tuned for expected degree ≈ 10 independent of n.
		{"unitdisk", perSize(ns, func(n int) scenario.Spec {
			return sweep(scenario.GraphSpec{Family: "unitdisk", Radius: radiusForDegree(n, 10)}, []int{n}, mis.NameFeedback)
		})},
	}

	res := &Result{
		ID:     "families",
		Title:  "feedback rounds across graph families",
		XLabel: "n",
		YLabel: "time steps",
	}
	for _, fam := range families {
		units, err := cfg.runAll(fam.specs, 50)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, nodeSeries(fam.name, units, rounds))
		appendFitNotes(res, fam.name)
	}
	return res, nil
}

// perSize builds one spec per node count.
func perSize(ns []int, spec func(n int) scenario.Spec) []scenario.Spec {
	specs := make([]scenario.Spec, len(ns))
	for i, n := range ns {
		specs[i] = spec(n)
	}
	return specs
}

// radiusForDegree returns the unit-square radius giving expected degree
// d: π r² (n−1) ≈ d.
func radiusForDegree(n, d int) float64 {
	if n <= 1 {
		return 0.5
	}
	return math.Sqrt(float64(d) / (math.Pi * float64(n-1)))
}
