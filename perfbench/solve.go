package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"beepmis"
	"beepmis/internal/mis"
	"beepmis/internal/obs"
	"beepmis/internal/sim"
)

// solve-sparse calls the public beepmis.Solve in-process on one sparse
// G(n, 10/n): the simulator does nearly all the work, and the service,
// scenario and graph-build layers none.

const (
	sparseN      = 100000
	sparseDegree = 10.0
	// solveRateBound sizes the seed schedule, far above today's rate of
	// about 30 solves per second on a 2-vCPU VM.
	solveRateBound = 2000
)

// runSolveSparse sets up the graph and a warm-up Solve, then times one
// caller issuing Solve at fresh seeds with default options.
func runSolveSparse(cfg config) (*outcome, error) {
	maxWall := maxWallFor(cfg.seconds)
	graphSeed, warmSeed, seeds := solveSeeds(cfg.seed, int(maxWall.Seconds())*solveRateBound+minOpsP95)
	o := &outcome{}
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var (
		g        *beepmis.Graph
		buildDur time.Duration
	)
	for r := 0; r < reps; r++ {
		g = nil // let the previous set-up's graph go before building the next
		t0 := time.Now()
		g = beepmis.GNP(sparseN, sparseDegree/sparseN, graphSeed)
		buildDur = time.Since(t0)
		res, err := beepmis.Solve(g, beepmis.AlgorithmFeedback, beepmis.WithSeed(warmSeed))
		if err != nil {
			return nil, fmt.Errorf("warm-up Solve: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		if err := beepmis.Verify(g, res.InMIS); err != nil {
			return nil, fmt.Errorf("warm-up Solve: %w", err)
		}
	}
	// The repeated set-ups left all but one graph as garbage, which a
	// single set-up would not have: return it to the OS so the timed
	// phase's resident set starts from what one set-up leaves.
	debug.FreeOSMemory()
	_, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		return nil, err
	}
	o.stamps = append(o.stamps, "engine.sparse="+sim.ResolveEngine(g, sim.Options{Bulk: bulk}).String())

	dg := newDigest()
	op := func(tr *tracer, em *obs.EngineMetrics) func(i int) opRecord {
		return func(i int) opRecord {
			opts := []beepmis.Option{beepmis.WithSeed(seeds[i])}
			if em != nil {
				opts = append(opts, beepmis.WithMetrics(em))
			}
			root := tr.begin("op", i, -1)
			s := tr.begin("sim.solve", i, root)
			t0 := time.Now()
			res, err := beepmis.Solve(g, beepmis.AlgorithmFeedback, opts...)
			lat := time.Since(t0)
			tr.end(s)
			tr.end(root)
			rec := opRecord{lat: lat, err: err, class: "sparse"}
			if err == nil {
				v := tr.begin("graph.verify", i, -1)
				rec.err = beepmis.Verify(g, res.InMIS)
				tr.end(v)
			}
			if rec.err == nil {
				rec.rounds = res.Rounds
				dg.add(i, fmt.Appendf(nil, "%d %d %d\n", res.Rounds, res.TotalBeeps, res.SetSize()))
			}
			return rec
		}
	}

	secs := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		cpu0 := selfCPU()
		sampler := sampleRSS(os.Getpid())
		recs, wall := closedLoop(1, 0, len(seeds), minOpsP95, secs, maxWall, op(nil, nil))
		rss, err := sampler.finish()
		o.cpu = selfCPU() - cpu0
		if err != nil {
			return nil, err
		}
		o.wall = wall
		o.fold(recs)
		o.rssMB = median(rss)
		if o.peakMB, err = procStatusMB(os.Getpid(), "VmHWM"); err != nil {
			return nil, err
		}
		o.digest, o.digestOps = dg.sum()
		return o, nil
	}

	// Odd ops are traced and feed the engine metrics, even ops run bare,
	// so the tracing overhead is measured under the same conditions.
	tr := newTracer()
	em := &obs.EngineMetrics{}
	bare, traced := op(nil, nil), op(tr, em)
	gc0 := readGC()
	recs, _ := closedLoop(1, 0, len(seeds), 1, secs, maxWall, func(i int) opRecord {
		if i%2 == 1 {
			return traced(i)
		}
		return bare(i)
	})
	gc1 := readGC()
	o.fold(recs)
	o.digest, o.digestOps = dg.sum()

	// The lazy CSR: the auto engine does not build it on this graph
	// today, so time it once, after the timed phases it could perturb.
	s := tr.begin("graph.csr", -1, -1)
	g.CSR()
	tr.end(s)
	spans := tr.snapshot()

	l := make(map[string]float64)
	ops := float64(len(recs))
	var solveNs, nodeRounds, rounds float64
	for _, r := range recs {
		solveNs += float64(r.lat.Nanoseconds())
		rounds += float64(r.rounds)
		nodeRounds += float64(g.N()) * float64(r.rounds)
	}
	l["graph.build_ms.sparse"] = float64(buildDur.Nanoseconds()) / 1e6
	l["graph.edges_per_s"] = float64(g.M()) / buildDur.Seconds()
	l["graph.csr_ms"] = mean(durations(spans, "graph.csr"))
	l["graph.verify_ms"] = mean(durations(spans, "graph.verify"))
	l["sim.run_ms"] = mean(durations(spans, "sim.solve"))
	if ops > 0 {
		l["sim.rounds_per_op"] = rounds / ops
		l["gc.alloc_mb_per_op"] = (gc1.allocBytes - gc0.allocBytes) / (1 << 20) / ops
		l["gc.cycles_per_op"] = (gc1.cycles - gc0.cycles) / ops
	}
	if n := float64(len(durations(spans, "sim.solve"))); n > 0 {
		phaseLayers(l, em, n)
	}
	if nodeRounds > 0 {
		l["sim.ns_per_node_round"] = solveNs / nodeRounds
	}
	l["trace.overhead_frac"] = overheadFrac(recs)
	o.layers = l
	o.spans = spans
	return o, nil
}

// gcCounters are the Go runtime's cumulative allocation and GC counts.
type gcCounters struct{ allocBytes, cycles float64 }

func readGC() gcCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return gcCounters{allocBytes: float64(s[0].Value.Uint64()), cycles: float64(s[1].Value.Uint64())}
}
