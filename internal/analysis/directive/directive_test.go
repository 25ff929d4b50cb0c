package directive_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"testing"

	"kpj/internal/analysis"
	"kpj/internal/analysis/directive"
)

// The fixture lives in a string rather than testdata because most of
// the diagnostics anchor on directive comments themselves, and a line
// comment can't also carry a // want comment.
const src = `package p

//kpjlint:deterministic each worker owns its slot
func ok() {}

//kpjlint:nosuchkind whatever
func unknownKind() {}

//kpjlint: bounded the kind arrives after a space
func malformed() {}

/*kpjlint:bounded drains a bounded queue*/
func blockComment() {}

//kpjlint:deterministic
func deterministicMissingReason() {}

func body() {
	//kpjlint:bounded
	for {
	}
}
`

func TestDirectiveValidation(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	type diag struct {
		line int
		msg  string
	}
	var got []diag
	pass := analysis.NewPass(directive.Analyzer, fset, []*ast.File{f}, nil, nil, func(d analysis.Diagnostic) {
		got = append(got, diag{fset.Position(d.Pos).Line, d.Message})
	})
	if err := directive.Analyzer.Run(pass); err != nil {
		t.Fatal(err)
	}

	want := []struct {
		line int
		re   string
	}{
		{6, `unknown kpjlint directive kind "nosuchkind"`},
		{9, `malformed kpjlint directive: kind must immediately follow the colon`},
		{12, `kpjlint directives must be line comments`},
		{15, `//kpjlint:deterministic requires a reason`},
		{19, `//kpjlint:bounded requires a reason`},
	}
	for _, w := range want {
		matched := false
		re := regexp.MustCompile(w.re)
		for _, g := range got {
			if g.line == w.line && re.MatchString(g.msg) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("line %d: no diagnostic matching %q (got %v)", w.line, w.re, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d diagnostics, want %d: %v", len(got), len(want), got)
	}
}
