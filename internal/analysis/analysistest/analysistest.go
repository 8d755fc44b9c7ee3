// Package analysistest runs a misvet analyzer over golden fixture
// packages and checks its diagnostics against // want annotations, in
// the style of golang.org/x/tools/go/analysis/analysistest (which the
// module does not depend on; see the package comment of
// beepmis/internal/analysis).
//
// Fixtures live in a GOPATH-style tree: dir/src/<importpath>/*.go.
// A fixture file marks each expected finding with a comment on the
// offending line:
//
//	r.buf = append(r.buf, v) // want "append may grow"
//
// The quoted string is a regexp matched against the diagnostic
// message; several may follow one want for several findings on one
// line. The harness applies suppression filtering exactly like the
// misvet driver — //misvet:allow directives suppress matching
// findings, and unjustified, unknown-analyzer, or stale directives
// are diagnostics themselves — so fixtures exercise the suppression
// contract, not just the analyzer.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"beepmis/internal/analysis"
)

// Run loads the fixture packages at dir/src/<path> for each path in
// pkgPaths, runs a over each (plus its End hook), filters through the
// fixtures' //misvet:allow directives, and reports any mismatch with
// the // want expectations as test errors.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join(dir, "src"))
	if err != nil {
		t.Fatal(err)
	}
	ld := newLoader(root)

	sup := analysis.NewSuppressions()
	var targets []*fixturePkg
	var diags []analysis.Diagnostic
	for _, path := range pkgPaths {
		p, err := ld.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		targets = append(targets, p)
		sup.Collect(ld.fset, p.files)
	}
	for _, p := range targets {
		if err := analysis.RunPackage(a, ld.fset, p.files, p.pkg, p.info, &diags); err != nil {
			t.Fatalf("%s: %s: %v", a.Name, p.pkg.Path(), err)
		}
	}
	if a.End != nil {
		a.End(func(d analysis.Diagnostic) { diags = append(diags, d) })
	}

	var kept []analysis.Diagnostic
	for _, d := range diags {
		if sup.Match(ld.fset, d.Analyzer, d.Pos) {
			continue
		}
		kept = append(kept, d)
	}
	kept = append(kept, sup.Problems(map[string]bool{a.Name: true})...)
	analysis.SortDiagnostics(ld.fset, kept)

	exps := collectWants(t, ld.fset, targets)
	for _, d := range kept {
		pos := ld.fset.Position(d.Pos)
		if e := claim(exps, pos.Filename, pos.Line, d.Message); e == nil {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, e := range exps {
		if !e.claimed {
			t.Errorf("%s:%d: no diagnostic matched want %q", e.file, e.line, e.pattern)
		}
	}
}

// expectation is one parsed want pattern.
type expectation struct {
	file    string
	line    int
	pattern string
	re      *regexp.Regexp
	claimed bool
}

// claim finds the first unclaimed expectation on (file, line) whose
// regexp matches message, marks it claimed, and returns it.
func claim(exps []*expectation, file string, line int, message string) *expectation {
	for _, e := range exps {
		if !e.claimed && e.file == file && e.line == line && e.re.MatchString(message) {
			e.claimed = true
			return e
		}
	}
	return nil
}

var (
	wantRe    = regexp.MustCompile(`^//\s*want\s+(.*)$`)
	patternRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

func collectWants(t *testing.T, fset *token.FileSet, pkgs []*fixturePkg) []*expectation {
	t.Helper()
	var exps []*expectation
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					quoted := patternRe.FindAllString(m[1], -1)
					if len(quoted) == 0 {
						t.Fatalf("%s: want comment carries no quoted pattern", pos)
					}
					for _, q := range quoted {
						pattern, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
						re, err := regexp.Compile(pattern)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
						}
						exps = append(exps, &expectation{file: pos.Filename, line: pos.Line, pattern: pattern, re: re})
					}
				}
			}
		}
	}
	return exps
}

// fixturePkg is one fully type-checked fixture package.
type fixturePkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader resolves imports from the fixture tree first and the build
// context (GOROOT) second. Fixture packages are fully checked with
// Info; everything else is checked with IgnoreFuncBodies — analyzers
// only need the exported shapes of a fixture's dependencies.
type loader struct {
	fset *token.FileSet
	root string
	ctxt build.Context
	pkgs map[string]*types.Package
	full map[string]*fixturePkg
	errs map[string]error
}

func newLoader(root string) *loader {
	ctxt := build.Default
	ctxt.CgoEnabled = false // source-only type-checking; fixtures and std are pure Go
	return &loader{
		fset: token.NewFileSet(),
		root: root,
		ctxt: ctxt,
		pkgs: make(map[string]*types.Package),
		full: make(map[string]*fixturePkg),
		errs: make(map[string]error),
	}
}

// load fully type-checks the fixture package at root/path.
func (l *loader) load(path string) (*fixturePkg, error) {
	if p, ok := l.full[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	var firstErr error
	conf.Error = func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if firstErr != nil {
		return nil, firstErr
	}
	if err != nil {
		return nil, err
	}
	p := &fixturePkg{files: files, pkg: pkg, info: info}
	l.full[path] = p
	l.pkgs[path] = pkg
	return p, nil
}

// Import implements types.Importer over fixtures and GOROOT source.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if err, ok := l.errs[path]; ok {
		return nil, err
	}
	pkg, err := l.importUncached(path)
	if err != nil {
		l.errs[path] = err
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *loader) importUncached(path string) (*types.Package, error) {
	if dir := filepath.Join(l.root, filepath.FromSlash(path)); isDir(dir) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	bp, err := l.ctxt.Import(path, l.root, 0)
	if err != nil {
		return nil, fmt.Errorf("import %q: %v", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: true}
	var firstErr error
	conf.Error = func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if firstErr != nil {
		return nil, fmt.Errorf("dependency %s: %v", path, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("dependency %s: %v", path, err)
	}
	return pkg, nil
}

func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return names, nil
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}
