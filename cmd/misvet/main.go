// Command misvet machine-checks the repository's cross-cutting
// invariants: determinism of the engine packages, the internal/rng
// stream discipline, //misvet:noalloc round-loop annotations, atomic
// field access consistency, and Prometheus metric-name grammar. It is
// the compile-time backstop for the runtime gates (engine equivalence
// matrices, alloc_test, the race jobs, registry panics) — see the
// "machine-checked invariants" section of DESIGN.md for the mapping.
//
// Standalone:
//
//	misvet ./...             # or: go run ./cmd/misvet ./...
//
// loads the named packages plus dependencies (one shared
// type-checker, so the atomicfield check is whole-program), runs
// every analyzer, and exits 1 if findings remain after suppression
// filtering. A finding is suppressed by a justified directive on the
// offending line or the line above:
//
//	//misvet:allow(determinism) telemetry only; never steers results
//
// Unjustified, unknown-analyzer, and stale (matching nothing)
// directives are themselves findings.
package main

import (
	"fmt"
	"os"

	"beepmis/internal/analysis"
	"beepmis/internal/analysis/atomicfield"
	"beepmis/internal/analysis/determinism"
	"beepmis/internal/analysis/metricname"
	"beepmis/internal/analysis/noalloc"
	"beepmis/internal/analysis/rngstream"
)

// analyzers returns a fresh suite. atomicfield accumulates state
// across packages, so the slice must not be reused between runs.
func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.New(),
		rngstream.New(""),
		noalloc.New(),
		atomicfield.New(),
		metricname.New(""),
	}
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: misvet packages...")
		os.Exit(2)
	}
	os.Exit(standalone(os.Args[1:]))
}

// standalone loads patterns with one shared type-checker and runs the
// whole suite, printing findings in stable order.
func standalone(patterns []string) int {
	suite := analyzers()
	fset, pkgs, err := analysis.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "misvet:", err)
		return 2
	}
	sup := analysis.NewSuppressions()
	for _, pkg := range pkgs {
		sup.Collect(fset, pkg.Files)
	}
	var raw []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range suite {
			if err := analysis.RunPackage(a, fset, pkg.Files, pkg.Pkg, pkg.Info, &raw); err != nil {
				fmt.Fprintf(os.Stderr, "misvet: %s on %s: %v\n", a.Name, pkg.Path, err)
				return 2
			}
		}
	}
	for _, a := range suite {
		if a.End != nil {
			a.End(func(d analysis.Diagnostic) { raw = append(raw, d) })
		}
	}
	known := make(map[string]bool)
	for _, a := range suite {
		known[a.Name] = true
	}
	var diags []analysis.Diagnostic
	for _, d := range raw {
		if analysis.IsTestFile(fset, d.Pos) || sup.Match(fset, d.Analyzer, d.Pos) {
			continue
		}
		diags = append(diags, d)
	}
	diags = append(diags, sup.Problems(known)...)
	analysis.SortDiagnostics(fset, diags)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "misvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
