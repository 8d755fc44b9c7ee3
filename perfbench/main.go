// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time against the program as users run it, checks
// every output, and prints every metric by name and unit, ending with
// one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Workloads, each a closed loop generated from this one process:
//
//	svc-miss      misd over loopback HTTP, 1 connection; every request a
//	              fresh-seed, one-trial-worker copy of load-tiny,
//	              sweep-algorithms without afek, or noisy-async
//	              (65/25/10%), so graph build dominates
//	svc-hit       misd, 2 connections; set-up executes a 64-spec working
//	              set, every timed request re-submits one and fetches its
//	              cached bytes, so request overhead dominates
//	solve-sparse  beepmis.Solve in-process on G(100000, 10/n) at fresh
//	              seeds, so the simulator's round loop dominates
//
// With --trace 0 the JSON carries the end-to-end metrics. With --trace 1
// the run records spans around its own calls into each layer, replays
// executed specs in-process through the scenario, graph, fault and sim
// layers, and reports the per-layer metrics instead; the spans are
// written to .bench_build/spans/. --repeat N runs the workload N times
// at seeds seed..seed+N-1 and prints each metric's median, quartiles,
// min and max.
//
// Run it from the repository root through run.sh, which first builds
// this command and cmd/misd from source:
//
//	sh perfbench/run.sh --workload svc-miss --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // repository root: golden specs, misd's working directory
	misd     string // misd binary
}

var workloads = map[string]func(config) (*outcome, error){
	"svc-miss":     runSvcMiss,
	"svc-hit":      runSvcHit,
	"solve-sparse": runSolveSparse,
}

// outcome is one run's raw measurements.
type outcome struct {
	attempted, failed int
	errs              []string // the first few failure messages
	setup             []float64
	lat               []float64 // ms per timed op, +Inf when it failed
	wall, cpu         time.Duration
	rssMB, peakMB     float64 // median sampled VmRSS; VmHWM
	digest            string
	digestOps         int
	stamps            []string
	layers            map[string]float64
	spans             []span
	notes             []string
}

// maxErrs bounds the failure messages a run keeps for its report.
const maxErrs = 5

// fold adds timed op records to the outcome.
func (o *outcome) fold(recs []opRecord) {
	for _, r := range recs {
		o.attempted++
		if r.err != nil {
			o.failed++
			if len(o.errs) < maxErrs {
				o.errs = append(o.errs, fmt.Sprintf("op %s: %v", r.class, r.err))
			}
		}
	}
	o.lat = append(o.lat, latencies(recs)...)
}

// endToEndValues derives the end-to-end metrics of an untraced run.
func (o *outcome) endToEndValues() map[string]float64 {
	ops := float64(len(o.lat))
	return map[string]float64{
		"setup_s":       median(o.setup),
		"ops_per_s":     ops / o.wall.Seconds(),
		"op_p50_ms":     percentile(o.lat, 50),
		"op_p95_ms":     percentile(o.lat, 95),
		"cpu_ms_per_op": float64(o.cpu.Nanoseconds()) / 1e6 / ops,
		"rss_mb":        o.rssMB,
	}
}

// failFrac is failed ÷ attempted.
func (o *outcome) failFrac() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

// layerValues returns every per-layer metric; a layer or class the
// workload never entered reads 0.
func (o *outcome) layerValues() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = o.layers[d.name]
	}
	return out
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a completed run whose outputs failed a check.
var errIncorrect = errors.New("some operations failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		cfg    config
		trace  int
		repeat int
	)
	fs.StringVar(&cfg.workload, "workload", "", "svc-miss, svc-hit or solve-sparse")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every schedule, spec seed and Solve seed derives from it")
	fs.IntVar(&cfg.seconds, "seconds", 25, "timed phase length")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.IntVar(&repeat, "repeat", 1, "runs at seeds seed..seed+N-1, then a steadiness summary")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.misd, "misd", ".bench_build/misd", "misd binary, built from the same checkout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runWorkload, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want svc-miss, svc-hit or solve-sparse)", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1 (got %d)", trace)
	}
	if cfg.seconds < 1 || repeat < 1 {
		return fmt.Errorf("--seconds and --repeat must be positive")
	}
	cfg.trace = trace == 1
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return err
	}
	cfg.root = root
	if cfg.misd, err = filepath.Abs(cfg.misd); err != nil {
		return err
	}
	// The file-ingest spec names its graph relative to the repository
	// root, for misd and for the in-process compile and replay alike.
	if err := os.Chdir(cfg.root); err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}

	var runs []map[string]float64
	total := resultJSON{Correct: true, Metrics: make(map[string]metricJSON)}
	for r := 0; r < repeat; r++ {
		c := cfg
		c.seed = cfg.seed + uint64(r)
		o, err := runWorkload(c)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", c.workload, c.seed, err)
		}
		values := o.endToEndValues()
		if c.trace {
			values = o.layerValues()
			if err := writeSpans(spansPath(c), o.spans); err != nil {
				return err
			}
		}
		printRun(stdout, c, o, defs, values)
		runs = append(runs, values)
		total.Attempted += o.attempted
		total.Failed += o.failed
		if r < repeat-1 {
			// The next run starts from a returned heap, as a fresh
			// process would for the in-process workload.
			debug.FreeOSMemory()
		}
	}
	if repeat > 1 {
		printSteadiness(stdout, defs, runs)
	}
	total.Correct = total.Failed == 0
	for _, d := range defs {
		var xs []float64
		for _, v := range runs {
			xs = append(xs, v[d.name])
		}
		total.Metrics[d.name] = metricJSON{Value: finite(median(xs)), Unit: d.unit}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return errIncorrect
	}
	return nil
}

// printRun prints one run's record: stamps, counts, digest, and every
// metric with its unit.
func printRun(w io.Writer, cfg config, o *outcome, defs []metricDef, values map[string]float64) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "  env: %s\n", strings.Join(append(envStamps(), o.stamps...), " "))
	fmt.Fprintf(w, "  ops: attempted=%d failed=%d\n", o.attempted, o.failed)
	for _, e := range o.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	fmt.Fprintf(w, "  digest: sha256=%s over the first %d ops\n", o.digest, o.digestOps)
	if len(o.setup) > 0 {
		fmt.Fprintf(w, "  setup: %s s\n", joinFloats(o.setup))
	}
	if o.peakMB > 0 {
		fmt.Fprintf(w, "  peak resident set (VmHWM): %.1f MB\n", o.peakMB)
	}
	if !cfg.trace && beyond(len(o.lat), 95) < minTail {
		fmt.Fprintf(w, "  note: only %d ops beyond p95 (want %d)\n", beyond(len(o.lat), 95), minTail)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", d.name, values[d.name], d.unit, d.target)
	}
	if !cfg.trace {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", "fail_frac", o.failFrac(), "ratio", "failed ÷ attempted")
		return
	}
	fmt.Fprintf(w, "  self time by span (ms total, count):\n")
	self := selfByName(o.spans)
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(w, "    %-22s %12.3f %8.0f\n", name, self[name][0], self[name][1])
	}
}

// printSteadiness prints each metric's spread over repeated runs: the
// quartiles are Python's statistics.quantiles(values, n=4), and spread
// is their distance as a share of the median.
func printSteadiness(w io.Writer, defs []metricDef, runs []map[string]float64) {
	fmt.Fprintf(w, "steadiness over %d runs:\n", len(runs))
	fmt.Fprintf(w, "  %-28s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "spread")
	for _, d := range defs {
		xs := make([]float64, 0, len(runs))
		for _, v := range runs {
			xs = append(xs, v[d.name])
		}
		q1, q3 := quartiles(xs)
		med := median(xs)
		spread := math.NaN()
		if med != 0 {
			spread = (q3 - q1) / med
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		fmt.Fprintf(w, "  %-28s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f\n", d.name, med, q1, q3, lo, hi, spread)
	}
}

// finite makes a value JSON can carry: a tail latency that a failed op
// made infinite reads as the largest float, and NaN as 0. Either only
// happens on a run that also reports failures.
func finite(x float64) float64 {
	switch {
	case math.IsInf(x, 1):
		return math.MaxFloat64
	case math.IsNaN(x):
		return 0
	}
	return x
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// envStamps are the build and machine facts every record carries.
func envStamps() []string {
	return []string{
		"go=" + runtime.Version(),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
	}
}

// spansPath is where a traced run writes its spans, inside the
// checkout's ignored build directory.
func spansPath(cfg config) string {
	return filepath.Join(cfg.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
