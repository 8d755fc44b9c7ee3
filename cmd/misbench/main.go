// Command misbench regenerates the paper's figures and tables.
//
// Usage:
//
//	misbench -list
//	misbench -exp fig3                      # paper-faithful trial counts
//	misbench -exp fig5 -trials 20 -format plot
//	misbench -exp all -trials 5 -maxn 300   # quick pass over everything
//	misbench -exp fig3 -format csv -out fig3.csv
//	misbench -exp all -format json -out base.json
//	misbench -exp all -compare base.json -z 4
//	                                        # every point within 4 standard errors of the baseline's
//	misbench -exp fig3 -workers 4           # bound the trial worker pool
//	misbench -exp fig3 -engine columnar     # pin the simulation engine
//	misbench -exp fig3 -shards 8            # bound columnar/sparse propagation goroutines
//	misbench -bench -json                   # machine-readable engine benchmark
//	misbench -bench -json -benchn 1000000 -benchp 0.00001 -benchruns 1
//	                                        # million-node: sparse only (the matrix exceeds the 2 GiB budget)
//	misbench -bench -json -faults '{"loss":0.05,"spurious":0.01}'
//	                                        # noisy-channel overhead vs the clean baseline
//	misbench -bench -cpuprofile cpu.pprof -memprofile heap.pprof -mutexprofile mutex.pprof
//	                                        # profile the bench itself (go tool pprof)
//
// Trials run in parallel on a bounded worker pool; output is
// bit-identical for any -workers value, any -engine choice, and any
// -shards value.
//
// The -bench mode times whole simulation runs per engine on one G(n,p)
// workload (configured with -benchn/-benchp/-benchruns) and, with
// -json, emits one JSON record per engine — the across-PR benchmark
// trajectory format (scripts/bench.sh wraps the records into the
// committed top-level-array files). Only the engines whose adjacency
// representation fits the 2 GiB sim.DefaultMemoryBudget are enumerated,
// and every record's auto_engine field names the engine the auto
// heuristic would pick, so a silent fallback is visible in the data.
//
// With -bench -compare BENCH_*.json the run becomes a regression gate:
// each fresh record is matched to the committed baseline by its
// (engine, n, p, shards, faults) key, a machine-readable diff is
// printed, and any record whose ns_per_round exceeds the baseline's by
// more than -tolerance fails the command (CI runs this; see
// .github/workflows/ci.yml).
//
//	misbench -bench -benchn 2000 -benchp 0.1 -benchruns 3 -shards 1 \
//	         -compare BENCH_pr6.json -tolerance 2.5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"beepmis/internal/experiment"
	"beepmis/internal/fault"
	"beepmis/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "misbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("misbench", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list experiment ids and exit")
		verdict   = fs.Bool("verdict", false, "run the headline-claim pass/fail gate and exit")
		exp       = fs.String("exp", "", "experiment id to run, or \"all\"")
		trials    = fs.Int("trials", 0, "override per-point trial count (0 = paper default)")
		maxN      = fs.Int("maxn", 0, "cap the largest workload size (0 = paper default)")
		seed      = fs.Uint64("seed", 1, "master random seed")
		format    = fs.String("format", "table", "output format: table, csv, json, or plot")
		out       = fs.String("out", "", "write output to this file instead of stdout")
		compare   = fs.String("compare", "", "compare against a baseline JSON file: experiment results (written with -format json), or with -bench a BENCH_*.json record trajectory; drift/regression beyond -tolerance fails")
		tol       = fs.Float64("tolerance", 0.2, "relative drift tolerance for -compare (with -bench: allowed ns_per_round slowdown per record)")
		zScore    = fs.Float64("z", 0, "compare experiment results statistically instead: a point drifts when its means differ by more than this many standard errors, |Δmean|/√(s₁²/t₁+s₂²/t₂); points with zero std on both sides must match exactly (0 = use -tolerance)")
		engine    = fs.String("engine", "auto", "simulation engine: auto, columnar, or sparse; the legacy scalar and bitset run sparse and columnar (results are seed-identical)")
		workers   = fs.Int("workers", 0, "trial worker pool size (0 = all cores; results are identical for any value)")
		shards    = fs.Int("shards", 0, "propagation goroutines per run (0 = all cores, 1 = serial; results are identical for any value)")
		bench     = fs.Bool("bench", false, "run the per-engine wall-clock benchmark instead of an experiment")
		benchN    = fs.Int("benchn", 20000, "bench graph size n for G(n,p)")
		benchP    = fs.Float64("benchp", 0.5, "bench edge probability p for G(n,p)")
		benchR    = fs.Int("benchruns", 3, "bench simulation runs per engine")
		graphSpec = fs.String("graph", "", `bench a generated workload instead of the default G(n,p): "rmat:n=65536,edges=1048576[,a=,b=,c=]", "configmodel:n=...,edges=...[,gamma=]", or "gnp:n=...,p=..." (graph.GNP)`)
		graphFile = fs.String("graphfile", "", "bench a graph streamed from this file (edge-list, .bel binary, or METIS — format inferred from the extension)")
		asJSON    = fs.Bool("json", false, "emit -bench results as JSON records (engine, auto_engine, shards, rounds, ns/round, beeps, heap)")
		faultsDoc = fs.String("faults", "", `fault-model JSON (e.g. '{"loss":0.05,"spurious":0.01}'): per-listener channel noise, wake schedules, outages — applied to every trial on every engine`)
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
		memProf   = fs.String("memprofile", "", "write a post-GC heap profile to this file on exit")
		mutexProf = fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit (samples every event)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuProf, *memProf, *mutexProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()
	eng, err := sim.ParseEngine(*engine)
	if err != nil {
		return err
	}
	var faults *fault.Spec
	if *faultsDoc != "" {
		faults, err = fault.ParseSpec([]byte(*faultsDoc))
		if err != nil {
			return err
		}
	}
	cfg := experiment.Config{Seed: *seed, Trials: *trials, MaxN: *maxN, Workers: *workers, Engine: eng, Shards: *shards, Faults: faults}
	if *asJSON && !*bench {
		return fmt.Errorf("-json applies to -bench output (experiments have -format json)")
	}
	if !(*zScore >= 0) || *zScore != 0 && (*bench || *compare == "") {
		return fmt.Errorf("-z takes a positive number of standard errors and applies to -compare on experiment results")
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create output file: %w", err)
		}
		defer func() { _ = f.Close() }()
		w = f
	}
	if (*graphSpec != "" || *graphFile != "") && !*bench {
		return fmt.Errorf("-graph and -graphfile apply to -bench workloads")
	}
	if *bench {
		wl, err := buildBenchWorkload(*graphSpec, *graphFile, *benchN, *benchP, *seed)
		if err != nil {
			return err
		}
		records, err := collectEngineBench(wl, *benchP, *benchR, *seed, eng, *shards, faults)
		if err != nil {
			return err
		}
		if *compare != "" {
			// Record-level regression gate: the same -compare flag that
			// diffs experiment results diffs bench trajectories when
			// -bench is on. Always emit the machine diff before failing.
			return runBenchCompare(w, records, *compare, *tol)
		}
		return writeBenchRecords(w, records, *asJSON)
	}
	if *list {
		for _, id := range experiment.IDs() {
			title, err := experiment.Describe(id)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-14s %s\n", id, title)
		}
		return nil
	}
	if *verdict {
		return runVerdict(stdout, cfg)
	}
	if *exp == "" {
		return fmt.Errorf("missing -exp (use -list to see experiments)")
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiment.IDs()
	}
	// A compare reports every experiment before it fails.
	var drifted error
	for i, id := range ids {
		res, err := experiment.Run(id, cfg)
		if err != nil {
			return err
		}
		if *compare != "" {
			if err := compareBaseline(w, res, *compare, *tol, *zScore); err != nil {
				drifted = errors.Join(drifted, err)
			}
			continue
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		switch *format {
		case "table":
			fmt.Fprint(w, res.Table())
		case "csv":
			if err := res.CSV(w); err != nil {
				return err
			}
		case "json":
			if err := res.WriteJSON(w); err != nil {
				return err
			}
		case "plot":
			chart, err := res.Plot()
			if err != nil {
				return err
			}
			fmt.Fprint(w, chart)
		default:
			return fmt.Errorf("unknown format %q (want table, csv, json, or plot)", *format)
		}
	}
	return drifted
}

// compareBaseline diffs res against the result of the same experiment
// in a saved JSON baseline (one result, or the stream -exp all writes)
// and errors on drift beyond tolerance or, when z > 0, beyond z standard
// errors.
func compareBaseline(w io.Writer, res *experiment.Result, path string, tolerance, z float64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open baseline: %w", err)
	}
	defer func() { _ = f.Close() }()
	all, err := experiment.ReadAllJSON(f)
	if err != nil {
		return err
	}
	baseline := all[0]
	for _, b := range all {
		if b.ID == res.ID {
			baseline = b
			break
		}
	}
	findings, within := experiment.Compare(baseline, res, tolerance), fmt.Sprintf("%.0f%%", 100*tolerance)
	if z > 0 {
		findings, within = experiment.CompareZ(baseline, res, z), fmt.Sprintf("z = %g", z)
	}
	if len(findings) == 0 {
		fmt.Fprintf(w, "%s: matches baseline %s within %s\n", res.ID, path, within)
		return nil
	}
	for _, finding := range findings {
		fmt.Fprintf(w, "%s: %s\n", res.ID, finding)
	}
	return fmt.Errorf("%s drifted from baseline %s (%d findings)", res.ID, path, len(findings))
}

// runVerdict prints the pass/fail gate and errors if any claim failed.
func runVerdict(w io.Writer, cfg experiment.Config) error {
	checks, err := experiment.Verdict(cfg)
	if err != nil {
		return err
	}
	failed := 0
	for _, c := range checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%-4s %s\n     %s\n", status, c.Name, c.Detail)
	}
	if failed > 0 {
		return fmt.Errorf("%d/%d headline claims failed", failed, len(checks))
	}
	fmt.Fprintf(w, "all %d headline claims reproduce\n", len(checks))
	return nil
}
