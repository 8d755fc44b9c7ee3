package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"testing"

	"beepmis/internal/analysis"
)

// noallocAnnotated is the curated set of this package's
// //misvet:noalloc functions — exactly the steady-state code paths
// TestRoundLoopAllocations and TestShardPoolRunAllocations exercise
// dynamically. The two enforcement layers must not drift: annotating
// a function the alloc tests never drive would let misvet vouch for a
// path nothing measures, and dropping an annotation would leave a
// measured path without compile-time coverage. Change this list only
// together with the annotation and the alloc tests.
var noallocAnnotated = []string{
	// round-loop phases, driven every round by runColumnar under both
	// the columnar and sparse engines (loseBeeps by the beep-loss rows).
	"*columnarLoop.beepShard",
	"*columnarLoop.drawBeeps",
	"*columnarLoop.exchange",
	"*columnarLoop.exchangeShard",
	"*columnarLoop.loseBeeps",
	"*columnarLoop.mergeShard",
	"*columnarLoop.observe",
	"*columnarLoop.observeShard",
	"*columnarLoop.runPool",
	"*columnarLoop.tallyRange",
	"*columnarLoop.timedShard",
	// the persistent worker pool every sharded phase rides on.
	"*shardPool.run",
	"*shardPool.worker",
	// per-round metrics accounting, pinned by the metrics-enabled
	// alloc-test rows.
	"*phaseClock.flush",
	"*phaseClock.mark",
	"*phaseClock.move",
	"*phaseClock.start",
}

// TestNoallocAnnotationsMatchAllocTests parses this package's
// production sources and asserts the //misvet:noalloc annotation set
// equals noallocAnnotated.
func TestNoallocAnnotationsMatchAllocTests(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, name := range files {
		if isTestFileName(name) {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !analysis.HasNoallocDirective(fd.Doc) {
				continue
			}
			got = append(got, funcLabel(fd))
		}
	}
	sort.Strings(got)
	want := append([]string(nil), noallocAnnotated...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("annotation drift:\n  annotated in sources: %v\n  curated alloc-test set: %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("annotation drift at %q (curated: %q):\n  annotated in sources: %v\n  curated alloc-test set: %v", got[i], want[i], got, want)
		}
	}
}

func isTestFileName(name string) bool {
	return len(name) > len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

func funcLabel(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return types.ExprString(fd.Recv.List[0].Type) + "." + fd.Name.Name
}
