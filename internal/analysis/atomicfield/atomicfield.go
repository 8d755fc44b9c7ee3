// Package atomicfield implements the misvet check that guards the
// lock-free metrics core: a struct field accessed through sync/atomic
// anywhere in the program must be accessed atomically everywhere. A
// single plain load next to atomic stores is a data race the race
// detector only catches if a test happens to interleave it; this
// analyzer catches it at the access site.
//
// Fields of the atomic.Int64-style wrapper types (what internal/obs
// uses) are safe by construction — the wrappers have no plain access
// path — so the check concerns the older &struct.field API.
//
// The check is whole-program: Run collects atomic and plain access
// sites per package, End reports conflicts once every package has
// been seen.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"beepmis/internal/analysis"
)

// access is one syntactic touch of a tracked field.
type access struct {
	pos token.Pos
	str string // file:line for cross-referencing in messages
}

// New returns a fresh atomicfield analyzer. State accumulates across
// Run calls and is reported by End, so drivers must construct a new
// analyzer per invocation.
func New() *analysis.Analyzer {
	atomicUse := make(map[*types.Var]access)
	plainUse := make(map[*types.Var][]access)
	a := &analysis.Analyzer{
		Name: "atomicfield",
		Doc:  "a struct field accessed via sync/atomic must be accessed atomically everywhere",
	}
	a.Run = func(pass *analysis.Pass) error {
		run(pass, atomicUse, plainUse)
		return nil
	}
	a.End = func(report func(analysis.Diagnostic)) {
		fields := make([]*types.Var, 0, len(atomicUse))
		for f := range atomicUse {
			fields = append(fields, f)
		}
		sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })
		for _, f := range fields {
			for _, p := range plainUse[f] {
				report(analysis.Diagnostic{
					Pos:      p.pos,
					Analyzer: a.Name,
					Message: "field " + f.Name() + " is accessed with sync/atomic (e.g. at " +
						atomicUse[f].str + ") but accessed plainly here; mixed access races",
				})
			}
		}
	}
	return a
}

func run(pass *analysis.Pass, atomicUse map[*types.Var]access, plainUse map[*types.Var][]access) {
	// Selector expressions consumed as &x.f arguments of atomic calls;
	// they are the sanctioned access path, not plain uses.
	sanctioned := make(map[*ast.SelectorExpr]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if f := atomicFieldArg(pass, call); f != nil {
				sel := ast.Unparen(call.Args[0]).(*ast.UnaryExpr).X.(*ast.SelectorExpr)
				sanctioned[sel] = true
				if _, seen := atomicUse[f]; !seen {
					atomicUse[f] = access{pos: call.Pos(), str: position(pass, call.Pos())}
				}
			}
			return true
		})
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			if f := fieldObj(pass, sel); f != nil {
				plainUse[f] = append(plainUse[f], access{pos: sel.Sel.Pos(), str: position(pass, sel.Sel.Pos())})
			}
			return true
		})
	}
}

// atomicFieldArg returns the field object when call is
// atomic.Op(&x.f, ...), nil otherwise.
func atomicFieldArg(pass *analysis.Pass, call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return nil
	}
	if !isAtomicOp(obj.Name()) || len(call.Args) == 0 {
		return nil
	}
	un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil
	}
	fsel, ok := un.X.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return fieldObj(pass, fsel)
}

func isAtomicOp(name string) bool {
	for _, prefix := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// fieldObj resolves sel to a struct-field variable, nil otherwise.
func fieldObj(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	s := pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

func position(pass *analysis.Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return p.Filename + ":" + itoa(p.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
