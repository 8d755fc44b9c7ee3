package experiment

import (
	"errors"
	"fmt"

	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
	"beepmis/internal/stats"
)

// runAblateFactor sweeps the feedback update factor away from the
// paper's 2. §6 claims the analysis "can be adapted to a wide range of
// different values for these factors"; this measures the constant-factor
// cost of that freedom on G(500, 1/2).
func runAblateFactor(cfg Config) (*Result, error) {
	n := 500
	if cfg.MaxN > 0 && cfg.MaxN < n {
		n = cfg.MaxN
	}
	factors := []float64{1.25, 1.5, 2, 3, 4}
	trials := cfg.trials(50)
	master := rng.New(cfg.Seed)

	res := &Result{
		ID:     "ablate-factor",
		Title:  fmt.Sprintf("feedback update factor sweep on G(%d,1/2)", n),
		XLabel: "factor",
		YLabel: "time steps",
	}
	series := Series{Name: "feedback"}
	for fi, factor := range factors {
		fbCfg := mis.FeedbackConfig{Factor: factor}
		factory, err := mis.NewFeedback(fbCfg)
		if err != nil {
			return nil, err
		}
		bulk, err := mis.NewFeedbackBulk(fbCfg)
		if err != nil {
			return nil, err
		}
		pt, err := sweepPoint(cfg, res, fmt.Sprintf("factor %v", factor), master, fi, trials, 0, factory, bulk, gnpHalf(n), roundsMetric)
		if err != nil {
			return nil, err
		}
		pt.X = factor
		series.Points = append(series.Points, pt)
	}
	res.Series = append(res.Series, series)
	res.Notes = append(res.Notes, "paper §6: any factor > 1 retains O(log n); expect a shallow optimum near 2")
	return res, nil
}

// runAblateInit exercises §6's claim that initial probabilities "may
// vary from node to node" without significant impact: uniform p₀ of 1/2,
// 1/16 and 1/64, plus a heterogeneous assignment where each node draws
// p₀ = 2^-(1 + id mod 6).
func runAblateInit(cfg Config) (*Result, error) {
	ns := cfg.sizes(intRange(100, 500, 100))
	trials := cfg.trials(50)
	master := rng.New(cfg.Seed)

	res := &Result{
		ID:     "ablate-init",
		Title:  "feedback initial-probability robustness on G(n,1/2)",
		XLabel: "n",
		YLabel: "time steps",
	}
	uniform := []struct {
		name string
		p0   float64
	}{
		{"p0=1/2 (paper)", 0.5},
		{"p0=1/16", 1.0 / 16},
		{"p0=1/64", 1.0 / 64},
	}
	for ui, u := range uniform {
		fbCfg := mis.FeedbackConfig{InitialP: u.p0}
		factory, err := mis.NewFeedback(fbCfg)
		if err != nil {
			return nil, err
		}
		bulk, err := mis.NewFeedbackBulk(fbCfg)
		if err != nil {
			return nil, err
		}
		series := Series{Name: u.name}
		for si, n := range ns {
			pt, err := sweepPoint(cfg, res, fmt.Sprintf("%s n=%d", u.name, n), master, ui*1000+si, trials, 0, factory, bulk, gnpHalf(n), roundsMetric)
			if err != nil {
				return nil, err
			}
			pt.X = float64(n)
			series.Points = append(series.Points, pt)
		}
		res.Series = append(res.Series, series)
	}

	hetero, err := mis.NewFeedbackHeterogeneous(mis.FeedbackConfig{}, func(id int) float64 {
		shift := uint(1 + id%6)
		return 1 / float64(int(1)<<shift)
	})
	if err != nil {
		return nil, err
	}
	series := Series{Name: "p0 random per node"}
	for si, n := range ns {
		// Heterogeneous initials have no columnar kernel: nil bulk
		// exercises the per-node adapter.
		pt, err := sweepPoint(cfg, res, fmt.Sprintf("hetero n=%d", n), master, 9000+si, trials, 0, hetero, nil, gnpHalf(n), roundsMetric)
		if err != nil {
			return nil, err
		}
		pt.X = float64(n)
		series.Points = append(series.Points, pt)
	}
	res.Series = append(res.Series, series)
	res.Notes = append(res.Notes, "paper §6: performance is insensitive to initial values bounded away from zero")
	return res, nil
}

// runAblateLoss goes beyond the paper: beeps are dropped independently
// per (beeper, listener) pair with the swept probability — drawn as one
// uniform per (listener, round) against loss^k, the chance that all k
// beeps a listener was sent are lost (sim.Options.BeepLoss), so it runs
// on every engine. Loss slows convergence mildly but — more importantly
// — can break *independence* (two mutually-deaf neighbours may both
// join), which the violation-rate series quantifies. Join announcements
// stay reliable, so termination and domination are unaffected.
func runAblateLoss(cfg Config) (*Result, error) {
	n := 300
	if cfg.MaxN > 0 && cfg.MaxN < n {
		n = cfg.MaxN
	}
	losses := []float64{0, 0.02, 0.05, 0.1, 0.2}
	trials := cfg.trials(100)
	master := rng.New(cfg.Seed)
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "ablate-loss",
		Title:  fmt.Sprintf("feedback under beep loss on G(%d,1/2)", n),
		XLabel: "loss probability",
		YLabel: "time steps / violation %",
	}
	roundsSeries := Series{Name: "time steps"}
	violSeries := Series{Name: "independence violations (%)"}
	for li, loss := range losses {
		rounds := make([]float64, trials)
		violated := make([]bool, trials)
		capped := make([]bool, trials)
		err := ForTrials(cfg.EffectiveWorkers(), trials, func(trial int) error {
			g := graph.GNP(n, 0.5, master.Stream(trialKey(li, trial, 1)))
			opts := cfg.simOpts(bulk)
			opts.BeepLoss = loss
			r, err := sim.Run(g, factory, master.Stream(trialKey(li, trial, 2)), opts)
			if err != nil {
				if !errors.Is(err, sim.ErrTooManyRounds) {
					return fmt.Errorf("loss %v: %w", loss, err)
				}
				capped[trial] = true
			}
			rounds[trial] = float64(r.Rounds)
			violated[trial] = !graph.IsIndependent(g, r.InMIS)
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.noteCensored(fmt.Sprintf("loss %v", loss), countTrue(capped), trials)
		violations := countTrue(violated)
		roundsSeries.Points = append(roundsSeries.Points, Point{
			X: loss, Mean: stats.Mean(rounds), Std: stats.StdDev(rounds), Trials: trials,
		})
		violSeries.Points = append(violSeries.Points, Point{
			X: loss, Mean: 100 * float64(violations) / float64(trials), Trials: trials,
		})
	}
	res.Series = append(res.Series, roundsSeries, violSeries)
	res.Notes = append(res.Notes, "loss on the first exchange only; join announcements reliable (see DESIGN.md)")
	return res, nil
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
	n := 300
	if cfg.MaxN > 0 && cfg.MaxN < n {
		n = cfg.MaxN
	}
	losses := []float64{0, 0.01, 0.02, 0.05, 0.1}
	const spurious = 0.01
	trials := cfg.trials(100)
	master := rng.New(cfg.Seed)
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		return nil, err
	}

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
	for li, loss := range losses {
		rounds := make([]float64, trials)
		stable := make([]float64, trials)
		breaches := make([]float64, trials)
		clean := make([]bool, trials)
		err := ForTrials(cfg.EffectiveWorkers(), trials, func(trial int) error {
			g := graph.GNP(n, 8/float64(n), master.Stream(trialKey(li, trial, 1)))
			opts := cfg.simOpts(bulk)
			// The sweep owns the channel-noise axis; a user-supplied
			// -faults model contributes its wake schedule and outages so
			// the composition is measured rather than silently dropped.
			spec := fault.Spec{Loss: loss, Spurious: spurious}
			if base := cfg.Faults; base != nil {
				spec.Wake = base.Wake
				spec.Outages = base.Outages
			}
			opts.Faults = &spec
			vf := fault.NewVerifier(g)
			opts.OnMISDelta = vf.ObserveRound
			r, err := sim.Run(g, factory, master.Stream(trialKey(li, trial, 2)), opts)
			if err != nil && !errors.Is(err, sim.ErrTooManyRounds) {
				return fmt.Errorf("loss %v: %w", loss, err)
			}
			rounds[trial] = float64(r.Rounds)
			stable[trial] = float64(vf.LastChangeRound())
			breaches[trial] = float64(vf.ViolationCount())
			clean[trial] = vf.ViolationCount() == 0
			return nil
		})
		if err != nil {
			return nil, err
		}
		roundsSeries.Points = append(roundsSeries.Points, Point{
			X: loss, Mean: stats.Mean(rounds), Std: stats.StdDev(rounds), Trials: trials,
		})
		stableSeries.Points = append(stableSeries.Points, Point{
			X: loss, Mean: stats.Mean(stable), Std: stats.StdDev(stable), Trials: trials,
		})
		violSeries.Points = append(violSeries.Points, Point{
			X: loss, Mean: stats.Mean(breaches), Std: stats.StdDev(breaches), Trials: trials,
		})
		cleanSeries.Points = append(cleanSeries.Points, Point{
			X: loss, Mean: 100 * float64(countTrue(clean)) / float64(trials), Trials: trials,
		})
		if tail, err := stats.Tails(rounds); err == nil {
			res.Notes = append(res.Notes, fmt.Sprintf("loss %v: rounds p50=%.0f p95=%.0f p99=%.0f", loss, tail.P50, tail.P95, tail.P99))
		}
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

// runAblateFloor ablates the probability floor (MinP) on the Theorem 1
// clique family. The paper's algorithm has no floor; a floor that is too
// high prevents nodes in large cliques from backing off far enough, so
// unique-beeper events become rare and convergence stalls — demonstrated
// here by censoring at a round cap.
func runAblateFloor(cfg Config) (*Result, error) {
	ks := []int{4, 8, 12}
	var ns []int
	for _, k := range ks {
		ns = append(ns, k*k*(k+1)/2)
	}
	ns = cfg.sizes(ns)
	floors := []struct {
		name string
		minP float64
	}{
		{"no floor (paper)", 0},
		{"floor 1/64", 1.0 / 64},
		{"floor 1/8", 1.0 / 8},
	}
	trials := cfg.trials(30)
	const roundCap = 20000
	master := rng.New(cfg.Seed)

	res := &Result{
		ID:     "ablate-floor",
		Title:  "probability floor on the union-of-cliques family",
		XLabel: "n",
		YLabel: fmt.Sprintf("time steps (censored at %d)", roundCap),
	}
	for fi, fl := range floors {
		fbCfg := mis.FeedbackConfig{MinP: fl.minP}
		factory, err := mis.NewFeedback(fbCfg)
		if err != nil {
			return nil, err
		}
		bulk, err := mis.NewFeedbackBulk(fbCfg)
		if err != nil {
			return nil, err
		}
		series := Series{Name: fl.name}
		for si, n := range ns {
			n := n
			pt, err := sweepPoint(cfg, res, fmt.Sprintf("%s n=%d", fl.name, n), master, fi*1000+si, trials, roundCap, factory, bulk,
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
	res.Notes = append(res.Notes, "a fixed floor must lose to growing clique sizes; the paper's floorless rule adapts")
	return res, nil
}
