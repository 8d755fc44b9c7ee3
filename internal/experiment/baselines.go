package experiment

import (
	"fmt"

	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/scenario"
	"beepmis/internal/sim"
	"beepmis/internal/stats"
)

var _ = register("bits", "§5 quantified: message bits per channel — feedback vs Métivier vs Luby", runBits)

// baseline runs trials of a message-passing baseline — Luby's or
// Métivier's algorithm, which are not beeping automata and so have no
// scenario — on fresh G(n,1/2) instances on the scenario trial pool.
// Trial t at sweep position key builds its graph from stream (key, t, 1)
// of the master seed's source and runs from stream (key, t, 2): the
// keys these series have always used. run stores the trial's
// measurements in its own slots.
func baseline(cfg Config, key, n, trials int, run func(trial int, g *graph.Graph, src *rng.Source) error) error {
	master := rng.New(max(cfg.Seed, 1)) // seed 0 means 1, as in the specs
	return scenario.ForTrials(cfg.Workers, trials, func(trial int) error {
		g := graph.GNP(n, 0.5, master.Stream(baselineKey(key, trial, 1)))
		return run(trial, g, master.Stream(baselineKey(key, trial, 2)))
	})
}

// baselineKey derives the rng stream id of one (sweep position, trial,
// purpose) triple.
func baselineKey(key, trial, purpose int) uint64 {
	return uint64(key)<<40 | uint64(trial)<<8 | uint64(purpose)
}

// perChannel averages per-trial values over the trials whose graph has
// an edge (ok): message bits per channel are undefined without one.
func perChannel(x float64, vals []float64, ok []bool, trials int) Point {
	kept := make([]float64, 0, len(vals))
	for i, v := range vals {
		if ok[i] {
			kept = append(kept, v)
		}
	}
	return Point{X: x, Mean: stats.Mean(kept), Std: stats.StdDev(kept), Trials: trials}
}

// runLuby compares Luby's algorithm (both variants) with the feedback
// algorithm on the Figure 3 workload. Both are O(log n) in rounds; the
// point of the comparison — made in §1 and §5 of the paper — is that the
// feedback algorithm matches Luby's round complexity while using one-bit
// messages and no degree knowledge. Message bits per node are recorded in
// the notes.
func runLuby(cfg Config) (*Result, error) {
	ns := cfg.sizes(intRange(100, 1000, 100))
	trials := cfg.trials(50)
	maxN := ns[len(ns)-1]

	res := &Result{
		ID:     "luby",
		Title:  "Luby vs feedback: rounds on G(n,1/2)",
		XLabel: "n",
		YLabel: "rounds",
	}
	var notes []string
	for vi, variant := range []mis.LubyVariant{mis.LubyPermutation, mis.LubyProbability} {
		series := Series{Name: variant.String()}
		for si, n := range ns {
			roundSlots := make([]float64, trials)
			bitSlots := make([]float64, trials)
			err := baseline(cfg, vi*1000+si, n, trials, func(trial int, g *graph.Graph, src *rng.Source) error {
				lr, err := mis.Luby(g, variant, src)
				if err != nil {
					return fmt.Errorf("%v n=%d: %w", variant, n, err)
				}
				if err := graph.VerifyMIS(g, lr.InMIS); err != nil {
					return fmt.Errorf("%v n=%d: invalid MIS: %w", variant, n, err)
				}
				roundSlots[trial] = float64(lr.Rounds)
				bitSlots[trial] = float64(lr.Bits) / float64(n)
				return nil
			})
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, Point{X: float64(n), Mean: stats.Mean(roundSlots), Std: stats.StdDev(roundSlots), Trials: trials})
			if n == maxN {
				bits := 0.0
				for _, b := range bitSlots {
					bits += b
				}
				notes = append(notes, bitsNote(variant.String(), bits/float64(trials), maxN))
			}
		}
		res.Series = append(res.Series, series)
	}

	// Feedback, through the scenario runner. Each beep is one bit on
	// each incident channel, so its bits per node are its beeps per node.
	rep, err := cfg.run(cfg.spec(sweep(gnp(0.5), ns, mis.NameFeedback), 50), nil)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, nodeSeries("feedback", rep.Units, rounds))
	// The notes list the algorithms alphabetically.
	res.Notes = append([]string{bitsNote("feedback", rep.Units[len(rep.Units)-1].Beeps.Mean, maxN)}, notes...)
	appendFitNotes(res, "luby-permutation", "luby-probability", "feedback")
	return res, nil
}

// bitsNote reports an algorithm's message bits per node at n.
func bitsNote(name string, bits float64, n int) string {
	return fmt.Sprintf("%s: ≈%.1f message bits per node at n=%d (per incident channel for beeps)", name, bits, n)
}

// runBits compares expected message bits per channel on G(n,1/2).
// Theorem 6 gives the feedback algorithm O(1) bits per channel; Métivier
// et al. (the paper's ref [18]) achieve the optimal O(log n) bits per
// channel among algorithms that compute with random duels; Luby's
// variants pay for numeric payloads.
func runBits(cfg Config) (*Result, error) {
	ns := cfg.sizes(intRange(100, 1000, 100))
	trials := cfg.trials(30)

	res := &Result{
		ID:     "bits",
		Title:  "message bits per channel on G(n,1/2)",
		XLabel: "n",
		YLabel: "bits/channel",
	}

	// Feedback: each beep is one bit on each incident channel; per
	// channel {u,v} the bits are beeps(u) + beeps(v). Averaged over
	// channels this is Σ_v beeps(v)·deg(v) / m, measured per trial.
	slots := make([][]float64, len(ns))
	ok := make([][]bool, len(ns))
	for i := range ns {
		slots[i], ok[i] = make([]float64, trials), make([]bool, trials)
	}
	rep, err := cfg.run(cfg.spec(sweep(gnp(0.5), ns, mis.NameFeedback), 30), func(unit, trial int, g *graph.Graph, r *sim.Result, _ int) {
		weighted := 0.0
		for v, b := range r.Beeps {
			weighted += float64(b) * float64(g.Degree(v))
		}
		if g.M() > 0 {
			slots[unit][trial] = weighted / float64(g.M())
			ok[unit][trial] = true
		}
	})
	if err != nil {
		return nil, err
	}
	fbSeries := Series{Name: "feedback"}
	for i, u := range rep.Units {
		fbSeries.Points = append(fbSeries.Points, perChannel(float64(u.Nodes), slots[i], ok[i], u.Trials))
	}
	res.Series = append(res.Series, fbSeries)

	// Métivier: duel bits counted exactly by the implementation. Luby
	// probability variant: payload bits counted by the implementation
	// (64-bit degree/mark messages + join bits).
	for bi, b := range []struct {
		name string
		bits func(g *graph.Graph, src *rng.Source) (int, error)
	}{
		{"metivier", func(g *graph.Graph, src *rng.Source) (int, error) { return mis.Metivier(g, src).Bits, nil }},
		{"luby-probability", func(g *graph.Graph, src *rng.Source) (int, error) {
			r, err := mis.Luby(g, mis.LubyProbability, src)
			if err != nil {
				return 0, err
			}
			return r.Bits, nil
		}},
	} {
		series := Series{Name: b.name}
		for si, n := range ns {
			vals := make([]float64, trials)
			has := make([]bool, trials)
			err := baseline(cfg, (bi+1)*1000+si, n, trials, func(trial int, g *graph.Graph, src *rng.Source) error {
				bits, err := b.bits(g, src)
				if err != nil {
					return fmt.Errorf("%s n=%d: %w", b.name, n, err)
				}
				if g.M() > 0 {
					vals[trial] = float64(bits) / float64(g.M())
					has[trial] = true
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, perChannel(float64(n), vals, has, trials))
		}
		res.Series = append(res.Series, series)
	}

	res.Notes = append(res.Notes,
		"feedback: Theorem 6 — O(1) bits per channel, flat in n",
		"metivier: optimal O(log n)-class baseline; duels end at the first differing random bit",
		"luby-probability: numeric payloads (64-bit values) dominate its channel cost")
	return res, nil
}
