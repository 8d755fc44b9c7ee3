// Package experiment regenerates every figure and table of the paper's
// evaluation as a named, parameterised experiment. Each beeping
// experiment is a list of scenario specs built from a Config and run by
// the scenario runner — the code path misrun and misd serve, so every
// point is the report of a content-hashed spec — and this package is
// the presentation over the returned unit reports: one series per
// algorithm or variant (mean ± standard deviation per point, as in the
// paper's error bars), reference curves, fitted growth coefficients and
// other notes, rendered as an aligned text table, CSV, JSON, or an
// ASCII plot. Only the message-passing baselines of the luby and bits
// experiments run outside the scenario runner, on its trial pool.
//
// The per-experiment index lives in DESIGN.md; measured-vs-paper numbers
// are recorded in EXPERIMENTS.md.
package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"beepmis/internal/fault"
	"beepmis/internal/plot"
	"beepmis/internal/scenario"
	"beepmis/internal/sim"
)

// Config scales an experiment run. The zero value reproduces the paper's
// trial counts and sizes. Seed, Trials, Workers, Engine, Shards and
// Faults become the fields of the same name of every spec the
// experiment runs.
type Config struct {
	// Seed is the master seed; runs with equal seeds are identical. As
	// in a scenario spec, 0 means 1.
	Seed uint64
	// Trials overrides the paper's per-point trial count when > 0 (use
	// a small value for quick smoke runs).
	Trials int
	// MaxN caps the largest node count when > 0, shrinking the sweep
	// for quick runs.
	MaxN int
	// Workers bounds the per-point trial worker pool; 0 means
	// GOMAXPROCS. Results are bit-identical for any worker count.
	Workers int
	// Engine selects the simulation engine for every trial (the zero
	// value is sim.EngineAuto). Results are bit-identical for every
	// engine.
	Engine sim.Engine
	// Shards bounds the columnar and sparse engines' propagation
	// goroutines per trial; 0 means GOMAXPROCS, except that a parallel
	// trial pool collapses it to serial propagation. Results are
	// bit-identical for any value.
	Shards int
	// Faults overlays every trial with a fault model (channel noise,
	// adversarial wake-up, outages — see internal/fault). Unlike the
	// knobs above this one changes results; it exists so misbench can
	// quantify noise overhead and robustness on any experiment.
	Faults *fault.Spec

	// roundCap, when > 0, caps every trial whose experiment sets no
	// round cap of its own. Unexported: tests use it to force a trial
	// to its cap.
	roundCap int
	// onReport, when non-nil, sees every report the experiment's specs
	// produce. Unexported: tests use it to read the units behind the
	// points.
	onReport func(*scenario.Report)
}

// Point is one x position of a series.
type Point struct {
	// X is the sweep coordinate (usually the node count n).
	X float64
	// Mean and Std are the trial mean and sample standard deviation.
	Mean, Std float64
	// Trials is the number of trials aggregated.
	Trials int
}

// Series is one line of a figure.
type Series struct {
	// Name labels the series (algorithm or reference curve).
	Name string
	// Points are the sweep results in ascending X.
	Points []Point
	// Reference marks analytically computed curves (no error bars).
	Reference bool
}

// Result is a regenerated figure or table.
type Result struct {
	// ID is the experiment identifier (e.g. "fig3").
	ID string
	// Title describes the paper artifact.
	Title string
	// XLabel and YLabel name the sweep coordinate and measurement.
	XLabel, YLabel string
	// Series holds one entry per algorithm/reference curve.
	Series []Series
	// Notes carries fits and observations appended by the runner.
	Notes []string
}

// Runner executes an experiment.
type Runner func(cfg Config) (*Result, error)

// descriptor ties an ID to its runner and a short description.
type descriptor struct {
	title string
	run   Runner
}

// registry is populated by the register calls beside each runner. It
// is written once during package initialisation and read-only
// afterwards.
var registry = map[string]descriptor{}

// register adds an experiment; it is called only from this package's
// variable initialisers.
func register(id, title string, run Runner) struct{} {
	registry[id] = descriptor{title: title, run: run}
	return struct{}{}
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line title of an experiment id.
func Describe(id string) (string, error) {
	d, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("experiment: unknown id %q (have %v)", id, IDs())
	}
	return d.title, nil
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Result, error) {
	d, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown id %q (have %v)", id, IDs())
	}
	res, err := d.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", id, err)
	}
	return res, nil
}

// Table renders the result as an aligned text table: one row per X
// value, one column per series showing "mean ± std".
func (r *Result) Table() string {
	xs := r.xValues()
	header := make([]string, 0, len(r.Series)+1)
	header = append(header, r.XLabel)
	for _, s := range r.Series {
		header = append(header, s.Name)
	}
	rows := make([][]string, 0, len(xs)+1)
	rows = append(rows, header)
	for _, x := range xs {
		row := make([]string, 0, len(header))
		row = append(row, trimFloat(x))
		for _, s := range r.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					if s.Reference {
						cell = fmt.Sprintf("%.2f", p.Mean)
					} else {
						cell = fmt.Sprintf("%.2f ± %.2f", p.Mean, p.Std)
					}
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(header))
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	for ri, row := range rows {
		for c, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[c]+2, cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w + 2
			}
			b.WriteString(strings.Repeat("-", total))
			b.WriteByte('\n')
		}
	}
	for _, note := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// CSV writes the result as comma-separated values with columns
// x,series,mean,std,trials.
func (r *Result) CSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "x,series,mean,std,trials\n"); err != nil {
		return fmt.Errorf("write csv header: %w", err)
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			name := strings.ReplaceAll(s.Name, ",", ";")
			if _, err := fmt.Fprintf(w, "%v,%s,%v,%v,%d\n", p.X, name, p.Mean, p.Std, p.Trials); err != nil {
				return fmt.Errorf("write csv row: %w", err)
			}
		}
	}
	return nil
}

// Plot renders the result's series as an ASCII chart.
func (r *Result) Plot() (string, error) {
	series := make([]plot.Series, 0, len(r.Series))
	for _, s := range r.Series {
		ps := plot.Series{Name: s.Name}
		for _, p := range s.Points {
			ps.Xs = append(ps.Xs, p.X)
			ps.Ys = append(ps.Ys, p.Mean)
		}
		series = append(series, ps)
	}
	return plot.Render(series, plot.Options{
		Title:  fmt.Sprintf("%s — %s", r.ID, r.Title),
		XLabel: r.XLabel,
		YLabel: r.YLabel,
	})
}

// xValues returns the sorted union of X coordinates across series.
func (r *Result) xValues() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range r.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

// trimFloat prints integers without a decimal point.
func trimFloat(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}
