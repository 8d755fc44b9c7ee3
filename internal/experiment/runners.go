package experiment

import (
	"errors"
	"fmt"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
	"beepmis/internal/stats"
)

// Registration of every experiment. The blank assignments run at package
// initialisation; the registry is read-only afterwards.
var (
	_ = register("fig3", "Figure 3: mean time steps on G(n,1/2), global sweep vs local feedback", runFig3)
	_ = register("fig5", "Figure 5: mean beeps per node on G(n,1/2), global sweep vs local feedback", runFig5)
	_ = register("thm1", "Theorem 1: union-of-cliques lower-bound family, preset schedules vs feedback", runThm1)
	_ = register("thm6", "Theorem 6: feedback beeps per node stay O(1) on G(n,1/2) and grids", runThm6)
	_ = register("luby", "§1 comparison: Luby's algorithm vs the feedback algorithm, rounds on G(n,1/2)", runLuby)
	_ = register("ablate-factor", "Robustness (§6): feedback update factor swept away from 2", runAblateFactor)
	_ = register("ablate-init", "Robustness (§6): non-default and per-node-random initial probabilities", runAblateInit)
	_ = register("ablate-loss", "Robustness beyond paper: beep loss — rounds and independence violations", runAblateLoss)
	_ = register("ablate-noise", "Robustness beyond paper: per-listener channel noise (fault layer, all engines) — rounds, tail percentiles, violations", runAblateNoise)
	_ = register("ablate-floor", "Design ablation: probability floor on the clique family", runAblateFloor)
)

// trials returns the effective trial count.
func (c Config) trials(paperDefault int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	return paperDefault
}

// sizes filters a sweep by MaxN.
func (c Config) sizes(all []int) []int {
	if c.MaxN <= 0 {
		return all
	}
	out := make([]int, 0, len(all))
	for _, n := range all {
		if n <= c.MaxN {
			out = append(out, n)
		}
	}
	if len(out) == 0 && len(all) > 0 {
		out = append(out, all[0])
	}
	return out
}

// intRange returns lo, lo+step, ..., hi.
func intRange(lo, hi, step int) []int {
	var out []int
	for n := lo; n <= hi; n += step {
		out = append(out, n)
	}
	return out
}

// trialKeys derives disjoint rng stream keys for (size index, trial,
// purpose).
func trialKey(sizeIdx, trial, purpose int) uint64 {
	return uint64(sizeIdx)<<40 | uint64(trial)<<8 | uint64(purpose)
}

// sweepPoint runs `trials` simulations at one sweep position on the
// bounded worker pool and aggregates metric over them. gen builds the
// trial's graph; metric maps the simulation result to the measured
// quantity; bulk is the factory's columnar kernel (nil when the
// algorithm has none, falling back to the per-node adapter). maxRounds
// caps each run (0 means cfg's cap, else the simulator default); a run
// that hits it is recorded at the cap, and noteCensored reports the
// count into res under label, which also prefixes any error. Each
// trial draws from rng streams keyed by its index and writes into its
// own slot, so the aggregate is bit-identical for any worker count.
func sweepPoint(
	cfg Config,
	res *Result,
	label string,
	master *rng.Source,
	sizeIdx, trials, maxRounds int,
	factory beep.Factory,
	bulk beep.BulkFactory,
	gen func(src *rng.Source) *graph.Graph,
	metric func(res *sim.Result, g *graph.Graph) float64,
) (Point, error) {
	vals := make([]float64, trials)
	capped := make([]bool, trials)
	opts := cfg.simOpts(bulk)
	if maxRounds > 0 {
		opts.MaxRounds = maxRounds
	}
	err := ForTrials(cfg.EffectiveWorkers(), trials, func(trial int) error {
		g := gen(master.Stream(trialKey(sizeIdx, trial, 1)))
		res, err := sim.Run(g, factory, master.Stream(trialKey(sizeIdx, trial, 2)), opts)
		if err != nil {
			if !errors.Is(err, sim.ErrTooManyRounds) {
				return err
			}
			capped[trial] = true
		}
		vals[trial] = metric(res, g)
		return nil
	})
	if err != nil {
		return Point{}, fmt.Errorf("%s: %w", label, err)
	}
	res.noteCensored(label, countTrue(capped), trials)
	return Point{
		Mean:   stats.Mean(vals),
		Std:    stats.StdDev(vals),
		Trials: trials,
	}, nil
}

// noteCensored reports in r's notes how many of a point's trials hit
// the round cap and were recorded at it. Every sweep point reports
// through here, so a capped trial can never pass silently as data.
func (r *Result) noteCensored(label string, censored, trials int) {
	if censored > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("%s: %d/%d trials censored at the round cap", label, censored, trials))
	}
}
