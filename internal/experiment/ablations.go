package experiment

import (
	"fmt"

	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/scenario"
	"beepmis/internal/sim"
	"beepmis/internal/stats"
)

var _ = register("ablate-jitter",
	"Robustness (§6): update factors varying per node and per time step", runAblateJitter)

// feedbackSweep runs the feedback algorithm tuned by fb on G(n,1/2) at
// each node count of ns.
func feedbackSweep(fb scenario.FeedbackSpec, ns []int) scenario.Spec {
	s := sweep(gnp(0.5), ns, mis.NameFeedback)
	s.Feedback = &fb
	return s
}

// runAblateFactor sweeps the feedback update factor away from the
// paper's 2. §6 claims the analysis "can be adapted to a wide range of
// different values for these factors"; this measures the constant-factor
// cost of that freedom on G(500, 1/2).
func runAblateFactor(cfg Config) (*Result, error) {
	n := cfg.size(500)
	res := &Result{
		ID:     "ablate-factor",
		Title:  fmt.Sprintf("feedback update factor sweep on G(%d,1/2)", n),
		XLabel: "factor",
		YLabel: "time steps",
	}
	series := Series{Name: "feedback"}
	for _, factor := range []float64{1.25, 1.5, 2, 3, 4} {
		rep, err := cfg.run(cfg.spec(feedbackSweep(scenario.FeedbackSpec{Factor: factor}, []int{n}), 50), nil)
		if err != nil {
			return nil, err
		}
		u := rep.Units[0]
		series.Points = append(series.Points, aggPoint(factor, u.Rounds, u.Trials))
	}
	res.Series = append(res.Series, series)
	res.Notes = append(res.Notes, "paper §6: any factor > 1 retains O(log n); expect a shallow optimum near 2")
	return res, nil
}

// variantSweeps runs one feedback spec per named variant over ns on
// G(n,1/2) and returns one rounds series per variant.
func variantSweeps(cfg Config, ns []int, variants []namedFeedback) ([]Series, error) {
	out := make([]Series, 0, len(variants))
	for _, v := range variants {
		rep, err := cfg.run(cfg.spec(feedbackSweep(v.fb, ns), 50), nil)
		if err != nil {
			return nil, err
		}
		out = append(out, nodeSeries(v.name, rep.Units, rounds))
	}
	return out, nil
}

// namedFeedback is one variant of a feedback ablation.
type namedFeedback struct {
	name string
	fb   scenario.FeedbackSpec
}

// runAblateInit exercises §6's claim that initial probabilities "may
// vary from node to node" without significant impact: uniform p₀ of 1/2,
// 1/16 and 1/64, plus a heterogeneous assignment where node v starts at
// p₀ = 2^-(1 + v mod 6).
func runAblateInit(cfg Config) (*Result, error) {
	series, err := variantSweeps(cfg, cfg.sizes(intRange(100, 500, 100)), []namedFeedback{
		{"p0=1/2 (paper)", scenario.FeedbackSpec{InitialP: 0.5}},
		{"p0=1/16", scenario.FeedbackSpec{InitialP: 1.0 / 16}},
		{"p0=1/64", scenario.FeedbackSpec{InitialP: 1.0 / 64}},
		{"p0 random per node", scenario.FeedbackSpec{InitialPByID: []float64{1.0 / 2, 1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64}}},
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "ablate-init",
		Title:  "feedback initial-probability robustness on G(n,1/2)",
		XLabel: "n",
		YLabel: "time steps",
		Series: series,
		Notes:  []string{"paper §6: performance is insensitive to initial values bounded away from zero"},
	}, nil
}

// runAblateJitter tests the strongest form of the paper's §6 robustness
// claim: the update factor "may vary between nodes and over time". Each
// probability adjustment draws a fresh factor uniformly from [factor,
// factor_max]; per-node initial probabilities are layered on top.
// Rounds on G(n,1/2) should track the fixed-factor baseline within a
// modest constant.
func runAblateJitter(cfg Config) (*Result, error) {
	wide := scenario.FeedbackSpec{Factor: 1.2, FactorMax: 5}
	series, err := variantSweeps(cfg, cfg.sizes(intRange(100, 500, 100)), []namedFeedback{
		{"fixed factor 2 (paper)", scenario.FeedbackSpec{}},
		{"factor ~ U[1.5, 3]", scenario.FeedbackSpec{Factor: 1.5, FactorMax: 3}},
		{"factor ~ U[1.2, 5]", wide},
		{"U[1.5,3] + random p0", scenario.FeedbackSpec{Factor: 1.5, FactorMax: 3, InitialPByID: []float64{1.0 / 2, 1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32}}},
	})
	if err != nil {
		return nil, err
	}
	// Every jittered run must still produce a valid MIS — a direct
	// spot-check beyond round counts.
	rep, err := cfg.run(cfg.spec(feedbackSweep(wide, []int{200}), 50), nil)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "ablate-jitter",
		Title:  "feedback with per-node, per-step random factors on G(n,1/2)",
		XLabel: "n",
		YLabel: "time steps",
		Series: series,
		Notes: []string{
			fmt.Sprintf("validity spot-check at n=200 under U[1.2,5]: %s over %d trials (must be every one)", verifiedWord(rep.Units[0].Verified), rep.Units[0].Trials),
			"paper §6: factors may vary between nodes and over time without losing O(log n)",
		},
	}, nil
}

// verifiedWord states a report's verified flag.
func verifiedWord(verified bool) string {
	if verified {
		return "every MIS verified"
	}
	return "an invalid MIS"
}

// runAblateLoss goes beyond the paper: beeps are dropped independently
// per (beeper, listener) pair with the swept probability — drawn as one
// uniform per (listener, round) against loss^k, the chance that all k
// beeps a listener was sent are lost (the spec's beep_loss), so it runs
// on every engine. Loss slows convergence mildly but — more importantly
// — can break *independence* (two mutually-deaf neighbours may both
// join), which the violation-rate series quantifies. Join announcements
// stay reliable, so termination and domination are unaffected.
func runAblateLoss(cfg Config) (*Result, error) {
	n := cfg.size(300)
	res := &Result{
		ID:     "ablate-loss",
		Title:  fmt.Sprintf("feedback under beep loss on G(%d,1/2)", n),
		XLabel: "loss probability",
		YLabel: "time steps / violation %",
	}
	roundsSeries := Series{Name: "time steps"}
	violSeries := Series{Name: "independence violations (%)"}
	for _, loss := range []float64{0, 0.02, 0.05, 0.1, 0.2} {
		s := cfg.spec(feedbackSweep(scenario.FeedbackSpec{}, []int{n}), 100)
		s.BeepLoss = loss
		violated := make([]bool, s.Trials)
		rep, err := cfg.run(s, func(_, trial int, g *graph.Graph, r *sim.Result, _ int) {
			violated[trial] = !graph.IsIndependent(g, r.InMIS)
		})
		if err != nil {
			return nil, fmt.Errorf("loss %v: %w", loss, err)
		}
		u := rep.Units[0]
		roundsSeries.Points = append(roundsSeries.Points, aggPoint(loss, u.Rounds, u.Trials))
		violSeries.Points = append(violSeries.Points, Point{X: loss, Mean: percentTrue(violated), Trials: u.Trials})
	}
	res.Series = append(res.Series, roundsSeries, violSeries)
	res.Notes = append(res.Notes, "loss on the first exchange only; join announcements reliable (see DESIGN.md)")
	return res, nil
}

// percentTrue is the percentage of set flags.
func percentTrue(flags []bool) float64 {
	set := 0
	for _, f := range flags {
		if f {
			set++
		}
	}
	return 100 * float64(set) / float64(len(flags))
}

// runAblateNoise is the fault-layer counterpart of runAblateLoss: loss
// is drawn per (listener, round) through internal/fault's noisy channel
// rather than per edge. The workload is a bounded-degree G(n, 8/n) —
// the wireless/biological regime the paper's robustness narrative is
// about; per-listener noise erases a listener's whole aggregate signal,
// so on dense graphs even tiny loss rates shatter independence (the
// expected breach count scales like m·loss²), which is a property of
// the channel model, not of the algorithm. Alongside mean rounds it
// reports the p50/p95/p99 round tail, rounds-to-stable-MIS, the mean
// per-trial breach count observed by fault.Verifier *during* the run,
// and the fraction of trials that stay clean throughout — the
// robustness table of EXPERIMENTS.md.
func runAblateNoise(cfg Config) (*Result, error) {
	n := cfg.size(300)
	const spurious = 0.01
	res := &Result{
		ID:     "ablate-noise",
		Title:  fmt.Sprintf("feedback under per-listener channel noise on G(%d, 8/n), spurious=%v", n, spurious),
		XLabel: "loss probability",
		YLabel: "time steps / violations / clean %",
	}
	roundsSeries := Series{Name: "time steps"}
	stableSeries := Series{Name: "rounds to stable MIS"}
	violSeries := Series{Name: "violations per trial"}
	cleanSeries := Series{Name: "clean trials (%)"}
	for _, loss := range []float64{0, 0.01, 0.02, 0.05, 0.1} {
		// The sweep owns the channel-noise axis; a user-supplied -faults
		// model contributes its wake schedule and outages so the
		// composition is measured rather than silently dropped.
		faults := fault.Spec{Loss: loss, Spurious: spurious}
		if base := cfg.Faults; base != nil {
			faults.Wake = base.Wake
			faults.Outages = base.Outages
		}
		s := cfg.spec(scenario.Spec{Graph: scenario.GraphSpec{Family: "gnp", N: n, P: 8 / float64(n)}, Algorithm: mis.NameFeedback, Faults: &faults}, 100)
		breaches := make([]float64, s.Trials)
		clean := make([]bool, s.Trials)
		rep, err := cfg.run(s, func(_, trial int, _ *graph.Graph, _ *sim.Result, violations int) {
			breaches[trial] = float64(violations)
			clean[trial] = violations == 0
		})
		if err != nil {
			return nil, fmt.Errorf("loss %v: %w", loss, err)
		}
		u := rep.Units[0]
		roundsSeries.Points = append(roundsSeries.Points, aggPoint(loss, u.Rounds, u.Trials))
		stableSeries.Points = append(stableSeries.Points, aggPoint(loss, u.StableRounds, u.Trials))
		violSeries.Points = append(violSeries.Points, Point{X: loss, Mean: stats.Mean(breaches), Std: stats.StdDev(breaches), Trials: u.Trials})
		cleanSeries.Points = append(cleanSeries.Points, Point{X: loss, Mean: percentTrue(clean), Trials: u.Trials})
		tail := u.RoundsTail
		res.Notes = append(res.Notes, fmt.Sprintf("loss %v: rounds p50=%.0f p95=%.0f p99=%.0f", loss, tail.P50, tail.P95, tail.P99))
	}
	res.Series = append(res.Series, roundsSeries, stableSeries, violSeries, cleanSeries)
	if cfg.Faults != nil && (cfg.Faults.Wake != nil || len(cfg.Faults.Outages) > 0) {
		res.Notes = append(res.Notes, "composed with the -faults wake/outage schedule (the sweep owns the loss/spurious axis)")
	}
	res.Notes = append(res.Notes,
		"per-listener noise (internal/fault): one draw per (listener, round) from its own stream — runs on every engine",
		"violations counted per round by fault.Verifier, not just at termination",
		"expected breaches grow like m·loss²: robustness is a property of (graph degree, loss rate), not of the schedule")
	return res, nil
}

// runAblateFloor ablates the probability floor (min_p) on the Theorem 1
// clique family. The paper's algorithm has no floor; a floor that is too
// high prevents nodes in large cliques from backing off far enough, so
// unique-beeper events become rare and convergence slows. Every trial
// runs under a 20,000-round cap, and a trial that reaches it fails the
// experiment.
func runAblateFloor(cfg Config) (*Result, error) {
	const roundCap = 20000
	res := &Result{
		ID:     "ablate-floor",
		Title:  "probability floor on the union-of-cliques family",
		XLabel: "n",
		YLabel: fmt.Sprintf("time steps (censored at %d)", roundCap),
	}
	ns := cfg.cliqueSizes([]int{4, 8, 12})
	for _, fl := range []struct {
		name string
		minP float64
	}{
		{"no floor (paper)", 0},
		{"floor 1/64", 1.0 / 64},
		{"floor 1/8", 1.0 / 8},
	} {
		s := sweep(scenario.GraphSpec{Family: "cliques"}, ns, mis.NameFeedback)
		s.Feedback = &scenario.FeedbackSpec{MinP: fl.minP}
		s.MaxRounds = roundCap
		rep, err := cfg.run(cfg.spec(s, 30), nil)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, nodeSeries(fl.name, rep.Units, rounds))
	}
	res.Notes = append(res.Notes, "a fixed floor must lose to growing clique sizes; the paper's floorless rule adapts")
	return res, nil
}
