package experiment

import (
	"fmt"
	"sort"

	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/stats"
)

// runLuby compares Luby's algorithm (both variants) with the feedback
// algorithm on the Figure 3 workload. Both are O(log n) in rounds; the
// point of the comparison — made in §1 and §5 of the paper — is that the
// feedback algorithm matches Luby's round complexity while using one-bit
// messages and no degree knowledge. Message bits per node are recorded in
// the notes.
func runLuby(cfg Config) (*Result, error) {
	ns := cfg.sizes(intRange(100, 1000, 100))
	trials := cfg.trials(50)
	master := rng.New(cfg.Seed)

	res := &Result{
		ID:     "luby",
		Title:  "Luby vs feedback: rounds on G(n,1/2)",
		XLabel: "n",
		YLabel: "rounds",
	}

	// Luby variants (message-passing, run directly on the graph).
	variants := []mis.LubyVariant{mis.LubyPermutation, mis.LubyProbability}
	totalBits := map[string]float64{}
	for vi, variant := range variants {
		series := Series{Name: variant.String()}
		for si, n := range ns {
			rounds := make([]float64, trials)
			bitSlots := make([]float64, trials)
			err := ForTrials(cfg.EffectiveWorkers(), trials, func(trial int) error {
				g := graph.GNP(n, 0.5, master.Stream(trialKey(vi*1000+si, trial, 1)))
				lr, err := mis.Luby(g, variant, master.Stream(trialKey(vi*1000+si, trial, 2)))
				if err != nil {
					return fmt.Errorf("%v n=%d: %w", variant, n, err)
				}
				if err := graph.VerifyMIS(g, lr.InMIS); err != nil {
					return fmt.Errorf("%v n=%d: invalid MIS: %w", variant, n, err)
				}
				rounds[trial] = float64(lr.Rounds)
				bitSlots[trial] = float64(lr.Bits) / float64(n)
				return nil
			})
			if err != nil {
				return nil, err
			}
			bits := 0.0
			for _, b := range bitSlots {
				bits += b
			}
			series.Points = append(series.Points, Point{
				X:      float64(n),
				Mean:   stats.Mean(rounds),
				Std:    stats.StdDev(rounds),
				Trials: trials,
			})
			if n == ns[len(ns)-1] {
				totalBits[variant.String()] = bits / float64(trials)
			}
		}
		res.Series = append(res.Series, series)
	}

	// Feedback, via the simulator.
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		return nil, err
	}
	series := Series{Name: "feedback"}
	maxN := ns[len(ns)-1]
	for si, n := range ns {
		n := n
		pt, err := sweepPoint(cfg, res, fmt.Sprintf("feedback n=%d", n), master, 9000+si, trials, 0, factory, bulk, gnpHalf(n), roundsMetric)
		if err != nil {
			return nil, err
		}
		pt.X = float64(n)
		series.Points = append(series.Points, pt)
		if n == maxN {
			// One extra pass for the bit accounting note: each beep is
			// one bit on each incident channel.
			beepsPt, err := sweepPoint(cfg, res, fmt.Sprintf("feedback beeps n=%d", n), master, 9500+si, trials, 0, factory, bulk, gnpHalf(n), beepsMetric)
			if err != nil {
				return nil, err
			}
			totalBits["feedback"] = beepsPt.Mean
		}
	}
	res.Series = append(res.Series, series)

	// Map iteration order is randomised; sort so the rendered notes are a
	// pure function of the seed like everything else.
	names := make([]string, 0, len(totalBits))
	for name := range totalBits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.Notes = append(res.Notes, fmt.Sprintf("%s: ≈%.1f message bits per node at n=%d (per incident channel for beeps)", name, totalBits[name], maxN))
	}
	appendFitNotes(res, "luby-permutation", "luby-probability", "feedback")
	return res, nil
}
