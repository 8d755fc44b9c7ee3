package main

import (
	"context"
	"fmt"
	"time"

	"beepmis/internal/beep"
	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/obs"
	"beepmis/internal/rng"
	"beepmis/internal/scenario"
	"beepmis/internal/sim"
)

// The scenario, graph, fault and sim layers run inside misd, out of the
// benchmark's reach, so a traced svc run replays executed specs
// in-process through those layers' public functions, one span per call.
// scenario's per-trial stream keys are unexported: replayed graph
// instances match the job's in distribution, not bit for bit.

// replayPerClass bounds how many executed specs of each class a traced
// run replays; each replay costs about three executions of the job.
const replayPerClass = 4

// compileReps is how often each replayed spec is compiled: one compile
// takes microseconds, so a single timing would be mostly clock noise.
const compileReps = 20

// stageSpans are the per-trial stages whose self times, summed, should
// explain a scenario.Run with one trial worker (scenario.coverage).
var stageSpans = []string{"graph.build", "graph.matrix", "graph.csr", "fault.verifier", "fault.observe", "sim.run", "graph.verify"}

// replayer replays specs into one tracer and one engine-metrics bundle.
type replayer struct {
	tr     *tracer
	em     *obs.EngineMetrics
	nextOp int
	class  class // of the spec being replayed
	// Totals over every replayed trial. violations counts breaches on
	// classes that must stay independent, noisyViolations those the
	// channel faults of the other classes may cause; verifyFailures
	// counts failed final checks on classes that must verify.
	trials, violations, noisyViolations, verifyFailures int
	nodeRounds, rounds, builtEdges                      int64
}

// replay runs one spec through compile, a trial-by-trial replay, and
// two timed scenario.Run calls (the spec's trial pool, then one worker).
// It returns the op id its spans carry.
func (r *replayer) replay(req request) (int, error) {
	op := r.nextOp
	r.nextOp++
	r.class = req.class
	root := r.tr.begin("replay."+req.class.name, op, -1)
	defer r.tr.end(root)

	var c *scenario.Compiled
	for i := 0; i < compileReps; i++ {
		s := r.tr.begin("scenario.compile", op, root)
		var err error
		c, err = scenario.ParseCompiledBytes(req.body)
		r.tr.end(s)
		if err != nil {
			return op, fmt.Errorf("compile %s: %w", req.class.name, err)
		}
	}
	if err := r.replayTrials(c, op, root); err != nil {
		return op, fmt.Errorf("replay %s: %w", req.class.name, err)
	}

	s := r.tr.begin("scenario.run", op, root)
	report, err := scenario.Run(context.Background(), c, scenario.RunOptions{})
	r.tr.end(s)
	if err != nil {
		return op, fmt.Errorf("scenario.Run %s: %w", req.class.name, err)
	}
	s = r.tr.begin("scenario.encode", op, root)
	_, err = report.JSON()
	r.tr.end(s)
	if err != nil {
		return op, err
	}
	s = r.tr.begin("scenario.run1", op, root)
	_, err = scenario.Run(context.Background(), c, scenario.RunOptions{Workers: 1})
	r.tr.end(s)
	return op, err
}

// replayTrials replays every unit's trials serially, as scenario.Run
// does with one trial worker.
func (r *replayer) replayTrials(c *scenario.Compiled, op, root int) error {
	spec := c.Spec
	engine, err := sim.ParseEngine(spec.Engine)
	if err != nil {
		return err
	}
	master := rng.New(spec.Seed ^ 0x9e3779b97f4a7c15)
	for _, u := range c.Units {
		ms := mis.Spec{Name: u.Algorithm, Afek: mis.AfekOriginalConfig{StepsPerLevel: spec.AfekStepsPerLevel}, FixedP: spec.FixedP}
		if spec.Feedback != nil {
			ms.Feedback = mis.FeedbackConfig(*spec.Feedback)
		}
		factory, bulk, err := mis.NewFactories(ms)
		if err != nil {
			return err
		}
		opts := sim.Options{
			MaxRounds: spec.MaxRounds,
			Engine:    engine,
			Bulk:      bulk,
			Shards:    spec.Shards,
			BeepLoss:  spec.BeepLoss,
			Faults:    spec.Faults,
			Metrics:   r.em,
		}
		if len(spec.CrashAtRound) > 0 {
			opts.CrashAtRound = spec.CrashAtRound
		}
		unitSrc := master.Stream(uint64(u.Index))
		var pinned *graph.Graph
		if !randomFamily(spec.Graph.Family) || spec.Graph.Seed != 0 {
			s := r.tr.begin("graph.build", op, root)
			pinned, err = buildGraph(spec.Graph, u.N, u.P, rng.New(spec.Graph.Seed))
			r.tr.end(s)
			if err != nil {
				return err
			}
			r.builtEdges += int64(pinned.M())
		}
		for trial := 0; trial < spec.Trials; trial++ {
			if err := r.trial(u, pinned, opts, spec, factory, unitSrc.Stream(uint64(trial)), op, root); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *replayer) trial(u *scenario.Unit, g *graph.Graph, opts sim.Options, spec *scenario.Spec, factory beep.Factory, src *rng.Source, op, root int) error {
	t := r.tr.begin("replay.trial", op, root)
	defer r.tr.end(t)
	if g == nil {
		s := r.tr.begin("graph.build", op, t)
		var err error
		g, err = buildGraph(spec.Graph, u.N, u.P, src.Stream(1))
		r.tr.end(s)
		if err != nil {
			return err
		}
		r.builtEdges += int64(g.M())
	}
	switch sim.ResolveEngine(g, opts) {
	case sim.EngineBitset, sim.EngineColumnar:
		s := r.tr.begin("graph.matrix", op, t)
		g.Matrix()
		r.tr.end(s)
	case sim.EngineSparse:
		s := r.tr.begin("graph.csr", op, t)
		g.CSR()
		r.tr.end(s)
	}
	if spec.WakeWindow > 0 {
		wakeSrc := src.Stream(3)
		wake := make([]int, g.N())
		for v := range wake {
			wake[v] = 1 + wakeSrc.Intn(spec.WakeWindow)
		}
		opts.WakeAt = wake
	}
	s := r.tr.begin("fault.verifier", op, t)
	verifier := fault.NewVerifier(g)
	r.tr.end(s)
	run := r.tr.begin("sim.run", op, t)
	opts.OnMISDelta = func(round int, joined, left []int) {
		o := r.tr.begin("fault.observe", op, run)
		verifier.ObserveRound(round, joined, left)
		r.tr.end(o)
	}
	res, err := sim.Run(g, factory, src.Stream(2), opts)
	r.tr.end(run)
	if err != nil {
		return err
	}
	s = r.tr.begin("graph.verify", op, t)
	verr := graph.VerifyMIS(g, res.InMIS)
	var exempt graph.Bitset
	if len(spec.CrashAtRound) > 0 {
		exempt = graph.NewBitset(g.N())
		for v, st := range res.States {
			if st == beep.StateCrashed {
				exempt.Set(v)
			}
		}
	}
	uncovered := len(verifier.Uncovered(exempt))
	r.tr.end(s)
	r.trials++
	if r.class.independent {
		r.violations += verifier.ViolationCount()
	} else {
		r.noisyViolations += verifier.ViolationCount()
	}
	if uncovered > 0 || (r.class.verified && verr != nil) {
		r.verifyFailures++
	}
	r.rounds += int64(res.Rounds)
	r.nodeRounds += int64(g.N()) * int64(res.Rounds)
	return nil
}

// randomFamily reports whether a family draws its instance from the
// trial's stream (the pinned families build once per unit).
func randomFamily(family string) bool {
	return family == "gnp" || family == "unitdisk"
}

// buildGraph builds the families the golden specs use.
func buildGraph(gs scenario.GraphSpec, n int, p float64, src *rng.Source) (*graph.Graph, error) {
	switch gs.Family {
	case "gnp":
		return graph.GNP(n, p, src), nil
	case "unitdisk":
		return graph.UnitDisk(n, gs.Radius, src), nil
	case "grid":
		return graph.Grid(gs.Rows, gs.Cols), nil
	case "file":
		c, _, err := graph.LoadCSRFile(gs.Path, gs.Format, 0)
		if err != nil {
			return nil, err
		}
		return graph.FromCSR(c), nil
	default:
		return nil, fmt.Errorf("graph family %q is not replayed", gs.Family)
	}
}

// fileHashUs times HashGraphFile + PeekGraphFile on the file-ingest
// fixture, the work compile does for every file spec, and returns the
// p50 over reps calls in microseconds.
func fileHashUs(tr *tracer, path string, reps int) (float64, error) {
	var us []float64
	for i := 0; i < reps; i++ {
		s := tr.begin("graph.file_hash", -1, -1)
		t0 := time.Now()
		if _, err := graph.HashGraphFile(path); err != nil {
			return 0, err
		}
		if _, err := graph.PeekGraphFile(path, ""); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(s)
	}
	return percentile(us, 50), nil
}

// replayLayers derives the scenario, graph, fault and sim per-layer
// metrics from the replay spans; opClass maps replay op ids to classes.
func replayLayers(l map[string]float64, rp *replayer, spans []span, opClass map[int]string) {
	self := selfTimes(spans)
	type acc struct{ compileUs, runMs, buildMs, run1Ms, stageMs []float64 }
	per := make(map[string]*acc)
	var encode, matrix, csr, verify, simRun []float64
	var verifierNs, simNs, buildNs int64
	isStage := make(map[string]bool)
	for _, n := range stageSpans {
		isStage[n] = true
	}
	for i, s := range spans {
		c, ok := opClass[s.Op]
		if !ok {
			continue
		}
		a := per[c]
		if a == nil {
			a = &acc{}
			per[c] = a
		}
		ms := float64(s.End-s.Start) / 1e6
		if isStage[s.Name] {
			a.stageMs = append(a.stageMs, float64(self[i])/1e6)
		}
		switch s.Name {
		case "scenario.compile":
			a.compileUs = append(a.compileUs, ms*1e3)
		case "scenario.run":
			a.runMs = append(a.runMs, ms)
		case "scenario.run1":
			a.run1Ms = append(a.run1Ms, ms)
		case "scenario.encode":
			encode = append(encode, ms)
		case "graph.build":
			a.buildMs = append(a.buildMs, ms)
			buildNs += s.End - s.Start
		case "graph.matrix":
			matrix = append(matrix, ms)
		case "graph.csr":
			csr = append(csr, ms)
		case "graph.verify":
			verify = append(verify, ms)
		case "fault.verifier", "fault.observe":
			verifierNs += s.End - s.Start
		case "sim.run":
			simRun = append(simRun, float64(self[i])/1e6)
			simNs += self[i]
		}
	}
	for c, a := range per {
		l["scenario.compile_us."+c] = percentile(a.compileUs, 50)
		l["scenario.run_ms."+c] = mean(a.runMs)
		l["graph.build_ms."+c] = mean(a.buildMs)
		if run1 := sum(a.run1Ms); run1 > 0 {
			l["scenario.coverage."+c] = sum(a.stageMs) / run1
		}
	}
	l["scenario.encode_ms"] = mean(encode)
	l["graph.matrix_ms"] = mean(matrix)
	l["graph.csr_ms"] = mean(csr)
	l["graph.verify_ms"] = mean(verify)
	if buildNs > 0 {
		l["graph.edges_per_s"] = float64(rp.builtEdges) / (float64(buildNs) / 1e9)
	}
	l["fault.violations"] = float64(rp.violations)
	if rp.trials > 0 {
		trials := float64(rp.trials)
		l["fault.verifier_ms"] = float64(verifierNs) / 1e6 / trials
		l["sim.rounds_per_op"] = float64(rp.rounds) / trials
		phaseLayers(l, rp.em, trials)
	}
	l["sim.run_ms"] = mean(simRun)
	if rp.nodeRounds > 0 {
		l["sim.ns_per_node_round"] = float64(simNs) / float64(rp.nodeRounds)
	}
}

// phaseLayers reports the engine's per-phase time per op.
func phaseLayers(l map[string]float64, em *obs.EngineMetrics, ops float64) {
	for ph, ns := range em.PhaseTotals() {
		l["sim."+ph+"_ms"] = float64(ns) / 1e6 / ops
	}
}
