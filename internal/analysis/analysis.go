// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis framework: an Analyzer is a named
// check with a Run function over one type-checked package, a Pass
// hands it the syntax and type information, and diagnostics are
// position + message pairs the driver prints.
//
// The repository's invariants — bit-identical results across engines,
// a zero-allocation steady-state round loop, a lock-free metrics core,
// content-hash-stable canonical specs — were previously enforced only
// by runtime tests that fire after a violation is written, often far
// from the offending line. The analyzers in the subpackages encode
// those invariants as compile-time checks; cmd/misvet is the driver.
//
// x/tools itself is deliberately not imported: the module is
// dependency-free by policy (see internal/rng for the same stance),
// and the subset of the framework these five analyzers need — one
// pass per package, a shared types.Info, line-anchored suppressions —
// is small. The API shapes match x/tools closely enough that porting
// onto the real framework later is mechanical.
//
// # Suppressions
//
// A finding is suppressed by a comment on the offending line, or on
// the line directly above it:
//
//	//misvet:allow(<analyzer>) <reason>
//
// The reason is mandatory: an allow without one is itself reported,
// as is an allow that no finding ever matched (stale suppressions rot
// into lies about the code). The analyzer name must be one of the
// registered checks.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position in the shared FileSet and a
// human-readable message. Analyzer is stamped by the driver.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries everything an Analyzer's Run may inspect for one
// package: parsed files, the type-checked package, and its Info. The
// FileSet is shared across every pass of a driver invocation, so
// token.Pos values from different packages are comparable.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos. The driver applies suppression
// filtering afterwards; analyzers just report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Analyzer is one named check. Run is invoked once per package; End,
// when non-nil, is invoked once after every package has been analyzed
// — the hook cross-package analyzers (atomicfield) use to report
// findings that need the whole program's access sites.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	End  func(report func(Diagnostic))
}

// RunPackage executes a on one loaded package, appending raw
// (unsuppressed) diagnostics to sink.
func RunPackage(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, sink *[]Diagnostic) error {
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		report:    func(d Diagnostic) { *sink = append(*sink, d) },
	}
	return a.Run(pass)
}

// AllowPrefix is the suppression directive; the analyzer name follows
// in parentheses, then the mandatory justification.
const AllowPrefix = "//misvet:allow("

// NoallocDirective marks a function whose body (and same-package
// callees) the noalloc analyzer checks for allocating constructs.
const NoallocDirective = "//misvet:noalloc"

// Allow is one parsed //misvet:allow directive.
type Allow struct {
	Analyzer string
	Reason   string
	Pos      token.Pos
	File     string
	Line     int
	Used     bool
}

// Suppressions indexes every //misvet:allow directive of a program by
// (file, line) so diagnostics can be matched against them.
type Suppressions struct {
	byLine map[string]map[int]*Allow
	all    []*Allow
}

// NewSuppressions returns an empty index.
func NewSuppressions() *Suppressions {
	return &Suppressions{byLine: make(map[string]map[int]*Allow)}
}

// Collect parses the misvet:allow directives of files into s. Files
// must have been parsed with comments.
func (s *Suppressions) Collect(fset *token.FileSet, files []*ast.File) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, AllowPrefix)
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(rest, ")")
				pos := fset.Position(c.Pos())
				a := &Allow{
					Analyzer: strings.TrimSpace(name),
					Reason:   strings.TrimSpace(reason),
					Pos:      c.Pos(),
					File:     pos.Filename,
					Line:     pos.Line,
				}
				lines := s.byLine[a.File]
				if lines == nil {
					lines = make(map[int]*Allow)
					s.byLine[a.File] = lines
				}
				lines[a.Line] = a
				s.all = append(s.all, a)
			}
		}
	}
}

// Match reports whether a diagnostic from analyzer at pos is covered
// by an allow on the same line or the line directly above, and marks
// that allow used. An allow with an empty reason never suppresses —
// unjustified silence is not silence.
func (s *Suppressions) Match(fset *token.FileSet, analyzer string, pos token.Pos) bool {
	p := fset.Position(pos)
	lines := s.byLine[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		if a := lines[line]; a != nil && a.Analyzer == analyzer && a.Reason != "" {
			a.Used = true
			return true
		}
	}
	return false
}

// Problems returns the diagnostics the suppression index itself
// raises: allows without a justification, allows naming an unknown
// analyzer, and allows that no finding matched.
func (s *Suppressions) Problems(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, a := range s.all {
		switch {
		case !known[a.Analyzer]:
			out = append(out, Diagnostic{Pos: a.Pos, Analyzer: "misvet",
				Message: fmt.Sprintf("misvet:allow names unknown analyzer %q", a.Analyzer)})
		case a.Reason == "":
			out = append(out, Diagnostic{Pos: a.Pos, Analyzer: "misvet",
				Message: fmt.Sprintf("misvet:allow(%s) carries no justification; write the reason after the closing parenthesis", a.Analyzer)})
		case !a.Used:
			out = append(out, Diagnostic{Pos: a.Pos, Analyzer: "misvet",
				Message: fmt.Sprintf("misvet:allow(%s) suppresses nothing; delete the stale directive", a.Analyzer)})
		}
	}
	return out
}

// SortDiagnostics orders diagnostics by file, line, column, then
// message — the stable order the driver prints and tests assert.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return ds[i].Message < ds[j].Message
	})
}

// HasNoallocDirective reports whether doc contains the
// //misvet:noalloc directive on a line of its own.
func HasNoallocDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, NoallocDirective)
		if ok && (text == "" || text[0] == ' ' || text[0] == '\t') {
			return true
		}
	}
	return false
}
