// Package analysistest runs a kpjlint analyzer over a testdata package
// and checks its diagnostics against // want "regexp" comment
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest
// closely enough that the testdata convention is familiar: a line that
// should be flagged carries a trailing
//
//	// want "regexp matching the diagnostic"
//
// comment (several, space-separated, if the line yields several
// diagnostics), and every diagnostic must be matched by an expectation
// on its line. Testdata packages may import the standard library; the
// harness obtains export data for those imports from the build cache
// via `go list -export`.
package analysistest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"kpj/internal/analysis"
	"kpj/internal/analysis/loadpkg"
)

// exportCache memoizes stdlib export-data lookups across tests in one
// process: `go list -export -deps std` output is stable for the run.
var exportCache = struct {
	sync.Mutex
	m map[string]string
}{m: map[string]string{}}

func stdlibExports(t *testing.T, imports []string) map[string]string {
	t.Helper()
	exportCache.Lock()
	defer exportCache.Unlock()
	var missing []string
	for _, path := range imports {
		if _, ok := exportCache.m[path]; !ok {
			missing = append(missing, path)
		}
	}
	if len(missing) > 0 {
		metas, err := loadpkg.List("", missing...)
		if err != nil {
			t.Fatalf("analysistest: listing imports %v: %v", missing, err)
		}
		for path, file := range loadpkg.ExportMap(metas) {
			exportCache.m[path] = file
		}
	}
	out := make(map[string]string, len(exportCache.m))
	for k, v := range exportCache.m {
		out[k] = v
	}
	return out
}

// expectation is one // want entry: a line that must produce a
// diagnostic matching re.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`// want (.*)$`)

// parseWants extracts the expectations from a file's comments.
func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			for _, pat := range splitQuoted(t, pos, m[1]) {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
				}
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// splitQuoted parses the payload of a want comment: one or more
// double-quoted or backquoted Go-ish string literals.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		quote := s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s: want payload must be quoted, got %q", pos, s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			t.Fatalf("%s: unterminated want pattern %q", pos, s)
		}
		out = append(out, s[1:1+end])
		s = s[end+2:]
	}
}

// Run type-checks the testdata package in dir under the import path
// pkgPath (so package-scoped analyzers see the path they guard), runs
// the analyzer, and reports any mismatch between its diagnostics and
// the // want expectations as test failures.
func Run(t *testing.T, a *analysis.Analyzer, dir, pkgPath string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var filenames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	if len(filenames) == 0 {
		t.Fatalf("analysistest: no .go files in %s", dir)
	}
	sort.Strings(filenames)

	// A parse-only pass learns the imports so their export data can be
	// fetched before the real type-check.
	var imports []string
	for _, f := range parseOnly(t, token.NewFileSet(), filenames) {
		for _, imp := range f.Imports {
			imports = append(imports, strings.Trim(imp.Path.Value, `"`))
		}
	}
	exports := stdlibExports(t, imports)

	fset := token.NewFileSet()
	files, pkg, info, err := loadpkg.Check(fset, pkgPath, filenames, loadpkg.Importer(fset, exports))
	if err != nil {
		t.Fatalf("analysistest: type-checking %s: %v", dir, err)
	}

	var wants []*expectation
	for _, f := range files {
		wants = append(wants, parseWants(t, fset, f)...)
	}

	var diags []analysis.Diagnostic
	pass := analysis.NewPass(a, fset, files, pkg, info, func(d analysis.Diagnostic) {
		diags = append(diags, d)
	})
	if err := a.Run(pass); err != nil {
		t.Fatalf("analysistest: analyzer %s: %v", a.Name, err)
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func parseOnly(t *testing.T, fset *token.FileSet, filenames []string) []*ast.File {
	t.Helper()
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		files = append(files, f)
	}
	return files
}
