package experiment

import (
	"context"

	"beepmis/internal/graph"
	"beepmis/internal/scenario"
	"beepmis/internal/sim"
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

// size caps one workload size by MaxN.
func (c Config) size(n int) int {
	if c.MaxN > 0 && c.MaxN < n {
		return c.MaxN
	}
	return n
}

// cliqueSizes returns, for the ks whose union of cliques MaxN admits,
// the n = k³ that make the cliques family build k copies of each of
// K_1..K_k: k²(k+1)/2 nodes (math.Cbrt is exact on these cubes). The ks
// ascend, so sizes keeps a prefix of them.
func (c Config) cliqueSizes(ks []int) []int {
	nodes := make([]int, len(ks))
	for i, k := range ks {
		nodes[i] = k * k * (k + 1) / 2
	}
	ns := make([]int, len(c.sizes(nodes)))
	for i := range ns {
		ns[i] = ks[i] * ks[i] * ks[i]
	}
	return ns
}

// intRange returns lo, lo+step, ..., hi.
func intRange(lo, hi, step int) []int {
	var out []int
	for n := lo; n <= hi; n += step {
		out = append(out, n)
	}
	return out
}

// gnp is the G(n, p) family; the sweep or the unit supplies n.
func gnp(p float64) scenario.GraphSpec { return scenario.GraphSpec{Family: "gnp", P: p} }

// sweep runs algos on family g at each node count of ns: units in the
// order algorithms × n.
func sweep(g scenario.GraphSpec, ns []int, algos ...string) scenario.Spec {
	return scenario.Spec{Graph: g, Algorithm: algos[0], Sweep: &scenario.SweepSpec{N: ns, Algorithms: algos}}
}

// spec stamps s with the experiment's seed and trial count (the paper's
// unless Trials overrides it) and with the engine, pool, shard and
// fault settings of c. Every spec of an experiment runs at the same
// seed, so units at the same index share graph and run streams: the
// variants of an experiment are paired.
func (c Config) spec(s scenario.Spec, paperTrials int) scenario.Spec {
	s.Seed = c.Seed
	s.Trials = c.trials(paperTrials)
	s.Engine = c.Engine.String()
	s.Workers = c.Workers
	s.Shards = c.Shards
	if s.Faults == nil {
		s.Faults = c.Faults
	}
	if s.MaxRounds == 0 {
		s.MaxRounds = c.roundCap
	}
	return s
}

// trialHook is scenario.RunOptions.OnTrial.
type trialHook = func(unit, trial int, g *graph.Graph, res *sim.Result, violations int)

// run compiles and runs a spec built by Config.spec. A trial that
// reaches its round cap fails the run with the scenario runner's error,
// which wraps sim.ErrTooManyRounds.
func (c Config) run(s scenario.Spec, onTrial trialHook) (*scenario.Report, error) {
	comp, err := s.Compile()
	if err != nil {
		return nil, err
	}
	rep, err := scenario.Run(context.Background(), comp, scenario.RunOptions{OnTrial: onTrial})
	if err != nil {
		return nil, err
	}
	if c.onReport != nil {
		c.onReport(rep)
	}
	return rep, nil
}

// runAll runs specs in order, each stamped by Config.spec, and returns
// their units in that order.
func (c Config) runAll(specs []scenario.Spec, paperTrials int) ([]scenario.UnitReport, error) {
	var units []scenario.UnitReport
	for _, s := range specs {
		rep, err := c.run(c.spec(s, paperTrials), nil)
		if err != nil {
			return nil, err
		}
		units = append(units, rep.Units...)
	}
	return units, nil
}

// unitsOf returns the units of rep that run algo, in sweep order.
func unitsOf(rep *scenario.Report, algo string) []scenario.UnitReport {
	var units []scenario.UnitReport
	for _, u := range rep.Units {
		if u.Algorithm == algo {
			units = append(units, u)
		}
	}
	return units
}

// nodeSeries is one point per unit, at X = the unit's node count, of
// the aggregate metric picks.
func nodeSeries(name string, units []scenario.UnitReport, metric func(scenario.UnitReport) scenario.Agg) Series {
	s := Series{Name: name}
	for _, u := range units {
		s.Points = append(s.Points, aggPoint(float64(u.Nodes), metric(u), u.Trials))
	}
	return s
}

// aggPoint is a point at x with an aggregate's mean and deviation.
func aggPoint(x float64, a scenario.Agg, trials int) Point {
	return Point{X: x, Mean: a.Mean, Std: a.Std, Trials: trials}
}

// rounds measures the paper's Figure 3 quantity.
func rounds(u scenario.UnitReport) scenario.Agg { return u.Rounds }

// beeps measures the paper's Figure 5 quantity.
func beeps(u scenario.UnitReport) scenario.Agg { return u.Beeps }
