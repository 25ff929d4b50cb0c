package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const annSrc = `package p

//kpjlint:bounded the whole function is bounded by construction
func f() {
	for {
	}
}

func g() {
	//kpjlint:deterministic single line
	x := 1
	_ = x
	//kpjlint:deterministic first line of a multi-line
	// group whose statement follows the group.
	y := 2
	_ = y
	z := 3 //kpjlint:deterministic trailing
	_ = z
	w := 4
	_ = w
}
`

func parseAnn(t *testing.T) (*Pass, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ann.go", annSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Pass{Fset: fset, Files: []*ast.File{f}}, f
}

// stmtOnLine finds the first statement starting on the given line.
func stmtOnLine(t *testing.T, pass *Pass, f *ast.File, line int) ast.Stmt {
	t.Helper()
	var found ast.Stmt
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok && found == nil && pass.Fset.Position(s.Pos()).Line == line {
			found = s
		}
		return found == nil
	})
	if found == nil {
		t.Fatalf("no statement on line %d", line)
	}
	return found
}

func TestAnnotated(t *testing.T) {
	pass, f := parseAnn(t)
	cases := []struct {
		line int
		kind string
		want bool
	}{
		{5, Bounded, true},         // inside doc-annotated function body
		{5, Deterministic, false},  // wrong kind
		{11, Deterministic, true},  // line-above directive
		{12, Deterministic, false}, // next statement not covered
		{15, Deterministic, true},  // multi-line group above
		{17, Deterministic, true},  // trailing same-line directive
		{19, Deterministic, false}, // unannotated
	}
	for _, c := range cases {
		s := stmtOnLine(t, pass, f, c.line)
		if got := pass.Annotated(s, c.kind); got != c.want {
			t.Errorf("line %d kind %s: Annotated = %v, want %v", c.line, c.kind, got, c.want)
		}
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text string
		want Directive
		ok   bool
	}{
		{"//kpjlint:deterministic because reasons", Directive{Kind: "deterministic", Reason: "because reasons"}, true},
		{"//kpjlint:bounded", Directive{Kind: "bounded"}, true},
		{"// kpjlint:bounded", Directive{}, false}, // directives cannot have the space
		{"//kpjlint:", Directive{}, false},
		{"//kpjlint: bounded late kind", Directive{Kind: "bounded", Malformed: true}, true},
		{"/*kpjlint:bounded drains*/", Directive{Kind: "bounded", Reason: "drains", Block: true}, true},
		{"// plain comment", Directive{}, false},
	}
	for _, c := range cases {
		d, ok := ParseDirective(c.text)
		if ok != c.ok || (ok && (d.Kind != c.want.Kind || d.Reason != c.want.Reason || d.Block != c.want.Block || d.Malformed != c.want.Malformed)) {
			t.Errorf("ParseDirective(%q) = %+v, %v; want %+v, %v", c.text, d, ok, c.want, c.ok)
		}
	}
}

func TestScopes(t *testing.T) {
	for path, want := range map[string]bool{
		"kpj":                   true,
		"kpj/internal/core":     true,
		"kpj/internal/landmark": true,
		"kpj/internal/server":   false,
		"kpj/internal/graph":    false,
	} {
		if got := OrderSensitive(path); got != want {
			t.Errorf("OrderSensitive(%q) = %v, want %v", path, got, want)
		}
	}
	for path, want := range map[string]bool{
		"kpj/internal/core":      true,
		"kpj/internal/sssp":      true,
		"kpj/internal/deviation": true,
		"kpj":                    false,
		"kpj/internal/landmark":  false,
	} {
		if got := SearchPackage(path); got != want {
			t.Errorf("SearchPackage(%q) = %v, want %v", path, got, want)
		}
	}
}
