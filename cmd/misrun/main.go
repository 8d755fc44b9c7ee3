// Command misrun executes one MIS algorithm on one graph and reports the
// outcome — or, with -scenario, executes a declarative scenario spec
// file and prints its result JSON.
//
// Usage:
//
//	misrun -graph gnp:n=500,p=0.5 -algo feedback -seed 42
//	misrun -graph grid:rows=20,cols=20 -algo globalsweep
//	misrun -graph file:path=network.edges -algo luby-permutation -show-set
//	misrun -graph gnp:n=100,p=0.5 -algo feedback -engine concurrent
//	misrun -graph gnp:n=1000000,p=0.00001 -algo feedback -engine sparse
//	misrun -graph gnp:n=500,p=0.5 -algo feedback -faults '{"loss":0.05,"wake":{"kind":"uniform","window":12}}'
//	misrun -scenario scenarios/quickstart.json
//	misrun -scenario sweep.json -hash
//	misrun -scenario scenarios/quickstart.json -metrics 2>telemetry.json
//
// A scenario run prints exactly the bytes a misd server would cache and
// serve for the same spec (the result JSON is a pure function of the
// spec's content hash), so files are interchangeable between the CLI
// and the service.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"beepmis"
	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/obs"
	"beepmis/internal/scenario"
	"beepmis/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "misrun:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	return runTo(args, stdout, os.Stderr)
}

// runTo is run with the -metrics destination explicit. Telemetry goes
// to stderr by design: a -scenario run's stdout is the canonical result
// JSON (byte-identical to what misd serves for the same spec), and the
// one-graph report is likewise parseable, so observability output must
// ride a different stream.
func runTo(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("misrun", flag.ContinueOnError)
	var (
		graphFlag = fs.String("graph", "gnp:n=200,p=0.5", "graph as family:key=value,… over a scenario graph block's keys (e.g. grid:rows=10,cols=10, file:path=net.el); a random family draws from -seed unless seed= is given")
		algo      = fs.String("algo", "feedback", "algorithm (see -algos)")
		algos     = fs.Bool("algos", false, "list algorithms and exit")
		seed      = fs.Uint64("seed", 1, "random seed (graph generation and run)")
		engine    = fs.String("engine", "sim", "execution engine: sim (auto-selected simulator), concurrent, or a simulator engine pin (columnar, sparse; the legacy scalar and bitset run sparse and columnar)")
		shards    = fs.Int("shards", 0, "worker shards for the columnar/sparse round phases (0 = GOMAXPROCS; output is identical for any value)")
		showSet   = fs.Bool("show-set", false, "print the selected vertex set")
		maxRounds = fs.Int("max-rounds", 0, "cap on synchronous rounds (0 = default)")
		faultsDoc = fs.String("faults", "", `fault-model JSON (e.g. '{"loss":0.05,"spurious":0.01,"wake":{"kind":"uniform","window":12}}'): channel noise, wake schedules, outages`)
		scenarioF = fs.String("scenario", "", "run a declarative scenario spec file and print its result JSON")
		hashOnly  = fs.Bool("hash", false, "with -scenario: print the spec's content hash and exit")
		metricsOn = fs.Bool("metrics", false, "after the run, dump engine telemetry (phase timings, frontier sizes, propagation volume) as JSON to stderr; stdout is untouched")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var metrics *obs.EngineMetrics
	if *metricsOn {
		metrics = &obs.EngineMetrics{}
	}
	if *scenarioF != "" {
		// The one-graph flags describe a workload the scenario file
		// replaces; a mixture is a mistake, not a merge.
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scenario", "hash", "metrics":
			default:
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fmt.Errorf("-scenario conflicts with -%s (the spec file describes the whole workload)", conflict)
		}
		return runScenario(*scenarioF, *hashOnly, metrics, stdout, stderr)
	}
	if *hashOnly {
		return fmt.Errorf("-hash requires -scenario")
	}
	if *algos {
		for _, a := range beepmis.Algorithms() {
			fmt.Fprintln(stdout, a)
		}
		return nil
	}

	spec, err := scenario.ParseGraph(*graphFlag)
	if err != nil {
		return err
	}
	g, err := spec.Build(*seed)
	if err != nil {
		return err
	}

	opts := []beepmis.Option{beepmis.WithSeed(*seed + 1), beepmis.WithMaxRounds(*maxRounds)}
	if *shards != 0 {
		opts = append(opts, beepmis.WithShards(*shards))
	}
	if metrics != nil {
		opts = append(opts, beepmis.WithMetrics(metrics))
	}
	var breakable bool
	if *faultsDoc != "" {
		spec, err := fault.ParseSpec([]byte(*faultsDoc))
		if err != nil {
			return err
		}
		// Only loss and outages can legitimately break the output (lost
		// aggregate signals admit adjacent joiners; a down or reset MIS
		// member abandons its neighbours). Wake-only and spurious-only
		// models always yield a valid MIS, so a failure there is an
		// engine bug and must stay fatal.
		breakable = spec.Loss > 0 || len(spec.Outages) > 0
		opts = append(opts, beepmis.WithFaults(*spec))
	}
	switch *engine {
	case "sim", "auto":
		// The simulator's auto-selection, the default.
	case "concurrent":
		opts = append(opts, beepmis.WithConcurrentEngine())
	default:
		// A simulator engine pin: columnar or sparse, or a legacy name.
		pin, err := sim.ParseEngine(*engine)
		if err != nil {
			return fmt.Errorf("unknown engine %q (want sim, concurrent, or a simulator engine: columnar, sparse, scalar, bitset)", *engine)
		}
		opts = append(opts, beepmis.WithEngine(pin))
	}
	res, err := beepmis.Solve(g, beepmis.Algorithm(*algo), opts...)
	if err != nil {
		return err
	}
	verifyErr := beepmis.Verify(g, res.InMIS)
	if verifyErr != nil && !breakable {
		return fmt.Errorf("output verification: %w", verifyErr)
	}

	fmt.Fprintf(stdout, "graph: n=%d m=%d maxdeg=%d\n", g.N(), g.M(), g.MaxDegree())
	fmt.Fprintf(stdout, "algorithm: %s (engine %s)\n", *algo, *engine)
	fmt.Fprintf(stdout, "mis size: %d\n", res.SetSize())
	fmt.Fprintf(stdout, "rounds: %d\n", res.Rounds)
	if res.TotalBeeps > 0 {
		fmt.Fprintf(stdout, "beeps/node: %.3f\n", res.MeanBeepsPerNode())
	}
	if res.MessageBits > 0 {
		fmt.Fprintf(stdout, "message bits: %d\n", res.MessageBits)
	}
	if r := res.Robustness; r != nil {
		fmt.Fprintf(stdout, "stable at round: %d\n", r.StableRound)
		fmt.Fprintf(stdout, "independence violations: %d\n", r.IndependenceViolations)
		fmt.Fprintf(stdout, "uncovered nodes: %d\n", len(r.Uncovered))
	}
	if verifyErr != nil {
		// A noisy channel can genuinely break the output; that is the
		// measurement, not a tool failure.
		fmt.Fprintf(stdout, "verified: NOT a maximal independent set under this fault model (%v)\n", verifyErr)
	} else {
		fmt.Fprintln(stdout, "verified: maximal independent set ✓")
	}
	if *showSet {
		fmt.Fprintf(stdout, "set: %v\n", graph.SetToList(res.InMIS))
	}
	return dumpMetrics(metrics, stderr)
}

// runScenario executes (or just hashes) a scenario spec file, printing
// the same result bytes a misd server caches for the spec.
func runScenario(path string, hashOnly bool, metrics *obs.EngineMetrics, stdout, stderr io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open scenario: %w", err)
	}
	defer func() { _ = f.Close() }()
	compiled, err := scenario.ParseCompiled(f)
	if err != nil {
		return err
	}
	if hashOnly {
		fmt.Fprintln(stdout, compiled.Hash)
		return nil
	}
	report, err := scenario.Run(context.Background(), compiled, scenario.RunOptions{Metrics: metrics})
	if err != nil {
		return err
	}
	if err := report.WriteJSON(stdout); err != nil {
		return err
	}
	return dumpMetrics(metrics, stderr)
}

// dumpMetrics renders the engine bundle's registry as JSON on stderr
// (no-op when -metrics was not given).
func dumpMetrics(metrics *obs.EngineMetrics, stderr io.Writer) error {
	if metrics == nil {
		return nil
	}
	reg := obs.NewRegistry()
	metrics.Register(reg)
	return reg.WriteJSON(stderr)
}
