// Command misgen generates graphs in the textual edge-list format
// understood by misrun and misnode.
//
// Usage:
//
//	misgen -graph gnp:n=500,p=0.5 -seed 7 -out net.edges
//	misgen -graph grid:rows=12,cols=12
//	misgen -graph barabasialbert:n=1000,m=3
//	misgen -graph wattsstrogatz:n=500,k=6,beta=0.1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"beepmis/internal/graph"
	"beepmis/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "misgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("misgen", flag.ContinueOnError)
	var (
		graphFlag = fs.String("graph", "gnp:n=100,p=0.5", "graph as family:key=value,… over a scenario graph block's keys (e.g. grid:rows=10,cols=10, barabasialbert:n=100,m=3); a random family draws from -seed unless seed= is given")
		seed      = fs.Uint64("seed", 1, "random seed")
		out       = fs.String("out", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := scenario.ParseGraph(*graphFlag)
	if err != nil {
		return err
	}
	g, err := spec.Build(*seed)
	if err != nil {
		return err
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
	// Build recorded the seed a random family drew from; a
	// deterministic family has none to stamp.
	header := fmt.Sprintf("# %s n=%d m=%d", *graphFlag, g.N(), g.M())
	if spec.Seed != 0 {
		header += fmt.Sprintf(" seed=%d", spec.Seed)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return fmt.Errorf("write header comment: %w", err)
	}
	return graph.WriteEdgeList(w, g)
}
