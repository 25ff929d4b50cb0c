package kpj_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoFunctionStyleAtomics: every shared counter in this module is a
// sync/atomic value type (atomic.Int64, atomic.Pointer[T], ...) whose only
// access path is its methods, so "atomic here, plain there" cannot be
// written. The function-style API (atomic.AddInt64(&x, 1)) over a plain
// field reopens that hole, and neither a behavioural test nor -race sees
// the plain read; this walk over the non-test sources rejects the call.
func TestNoFunctionStyleAtomics(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "atomic" {
						t.Errorf("%s: atomic.%s(...): use an atomic.Int64-style value, not the function API", fset.Position(call.Pos()), sel.Sel.Name)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
