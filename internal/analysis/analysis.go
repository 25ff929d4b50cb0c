// Package analysis is a small stdlib-only analysis framework modelled on
// golang.org/x/tools/go/analysis, hosting the kpjlint suite: custom
// analyzers that machine-check the engine's determinism, budget, and
// error-contract invariants (see DESIGN.md "Invariants and kpjlint").
//
// The x/tools module is deliberately not a dependency — the repo builds
// with the bare toolchain — so this package defines the minimal
// Analyzer/Pass/Diagnostic surface the six analyzers need, an
// annotation (directive comment) facility, and the package-scope
// predicates that say where each invariant applies. Drivers live in
// cmd/kpjlint (go vet -vettool protocol and a standalone mode) and
// internal/analysis/analysistest (the test harness).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant check. Run is invoked once per
// type-checked package and reports findings through pass.Report.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags
	// (-mapiter=false), and annotation documentation. It must be a
	// valid identifier.
	Name string
	// Doc is the help text: first line is a one-line summary.
	Doc string
	// Run executes the check. A non-nil error aborts the whole driver
	// (reserved for internal failures, not findings).
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Diagnostic is one finding at a source position. Analyzer is the name
// of the analyzer that produced it; drivers fill it in (via Analyze) so
// the machine-readable emitters can attribute findings to rules.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// A Pass carries one package's syntax and type information to an
// analyzer's Run function. Passes are driver-constructed; analyzers
// must not mutate the shared fields.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	ann map[*ast.File]*fileAnnotations
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// NewPass assembles a Pass; drivers use it so annotation state is
// initialized consistently.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, Report: report}
}

// TestFile reports whether the file holding pos is a _test.go file.
// The kpjlint invariants guard production output; tests deliberately
// iterate maps, spawn goroutines, and measure wall-clock time, so every
// analyzer skips test files through this predicate.
func (p *Pass) TestFile(f *ast.File) bool {
	name := p.Fset.Position(f.Package).Filename
	return strings.HasSuffix(name, "_test.go")
}

// Directive kinds accepted in //kpjlint:KIND comments.
const (
	// Deterministic marks code whose apparent order/time/scheduling
	// sensitivity provably cannot leak into query output. Honored by
	// mapiter, nondeterm, and atomicmix.
	Deterministic = "deterministic"
	// Bounded marks a search loop whose work is bounded by construction
	// (or accounted for by an enclosing loop's Bound). Honored by
	// boundcheck.
	Bounded = "bounded"
)

// KnownDirectives enumerates the accepted //kpjlint: directive kinds;
// the directive analyzer flags anything else.
var KnownDirectives = []string{Deterministic, Bounded}

// fileAnnotations indexes one file's //kpjlint: directives: the source
// lines carrying each kind, plus the body line ranges of functions whose
// doc comment carries a kind (a doc directive blankets the whole body).
type fileAnnotations struct {
	lines  map[string]map[int]bool
	bodies map[string][][2]int
}

// Annotated reports whether node carries the //kpjlint:kind directive:
// on the node's first line, on the line immediately above it, or in the
// doc comment of the function declaration enclosing it.
func (p *Pass) Annotated(node ast.Node, kind string) bool {
	if p.ann == nil {
		p.ann = make(map[*ast.File]*fileAnnotations)
		for _, f := range p.Files {
			p.ann[f] = indexAnnotations(p.Fset, f)
		}
	}
	pos := node.Pos()
	for f, ann := range p.ann {
		if f.FileStart <= pos && pos <= f.FileEnd {
			line := p.Fset.Position(pos).Line
			if ann.lines[kind][line] || ann.lines[kind][line-1] {
				return true
			}
			for _, r := range ann.bodies[kind] {
				if r[0] <= line && line <= r[1] {
					return true
				}
			}
			return false
		}
	}
	return false
}

func indexAnnotations(fset *token.FileSet, f *ast.File) *fileAnnotations {
	ann := &fileAnnotations{
		lines:  map[string]map[int]bool{},
		bodies: map[string][][2]int{},
	}
	record := func(kind string, line int) {
		m := ann.lines[kind]
		if m == nil {
			m = map[int]bool{}
			ann.lines[kind] = m
		}
		m[line] = true
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := ParseDirective(c.Text); ok && !d.Block && !d.Malformed {
				record(d.Kind, fset.Position(c.Pos()).Line)
				// A directive anywhere in a comment group annotates the
				// statement the whole group is attached to, i.e. the line
				// after the group's end (continuation lines may follow the
				// directive).
				record(d.Kind, fset.Position(cg.End()).Line)
			}
		}
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil || fd.Body == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			if d, ok := ParseDirective(c.Text); ok && !d.Block && !d.Malformed {
				ann.bodies[d.Kind] = append(ann.bodies[d.Kind], [2]int{
					fset.Position(fd.Body.Pos()).Line,
					fset.Position(fd.Body.End()).Line,
				})
			}
		}
	}
	return ann
}

// A Directive is one parsed //kpjlint: comment, before validation: the
// directive analyzer checks Kind against KnownDirectives and enforces
// the per-kind reason and placement rules.
type Directive struct {
	Pos    token.Pos
	Kind   string
	Reason string
	// Block records the illegal /*kpjlint:...*/ form. Block directives
	// are parsed (so they can be reported) but never honored: gofmt may
	// move block comments, silently detaching the waiver from its line.
	Block bool
	// Malformed records a directive whose kind does not directly follow
	// the colon (e.g. "//kpjlint: bounded"). Reported, never honored.
	Malformed bool
}

// ParseDirective parses "//kpjlint:KIND" and "//kpjlint:KIND reason"
// comments (and their /* */ forms, marked Block). The directive marker
// admits no space after // — that is a plain comment mentioning kpjlint,
// not a directive.
func ParseDirective(text string) (Directive, bool) {
	var d Directive
	rest, ok := strings.CutPrefix(text, "//kpjlint:")
	if !ok {
		if rest, ok = strings.CutPrefix(text, "/*kpjlint:"); !ok {
			return d, false
		}
		d.Block = true
		rest = strings.TrimSuffix(rest, "*/")
	}
	i := 0
	for i < len(rest) && (rest[i] == '_' || 'a' <= rest[i] && rest[i] <= 'z' || 'A' <= rest[i] && rest[i] <= 'Z') {
		i++
	}
	d.Kind = rest[:i]
	if d.Kind == "" {
		// The kind does not directly follow the colon: surface it as a
		// malformed directive rather than ignoring it, so a typo like
		// "//kpjlint: bounded" is caught by the directive analyzer.
		d.Malformed = true
		d.Kind, _, _ = strings.Cut(strings.TrimSpace(rest), " ")
		return d, d.Kind != ""
	}
	d.Reason = strings.TrimSpace(rest[i:])
	return d, true
}

// Directives returns every parsed //kpjlint: directive in f, in source
// order, including malformed ones (unknown kinds, block-comment form).
// The directive analyzer consumes this; other analyzers use Annotated.
func Directives(f *ast.File) []Directive {
	var out []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := ParseDirective(c.Text); ok {
				d.Pos = c.Pos()
				out = append(out, d)
			}
		}
	}
	return out
}

// OrderSensitive reports whether pkg's emitted values must be a pure
// function of the query: the engine core, the deviation baselines, the
// landmark index builders (their tables feed every bound the engine
// compares), the public kpj API that merges their results, the SSSP tree
// builders (heap vs bucket queue must produce bit-identical canonical
// trees), and the priority queues themselves (their pop order feeds
// those trees). mapiter and nondeterm apply only in these packages.
func OrderSensitive(path string) bool {
	switch path {
	case "kpj", "kpj/internal/core", "kpj/internal/deviation", "kpj/internal/landmark",
		"kpj/internal/sssp", "kpj/internal/pqueue":
		return true
	}
	return false
}

// SearchPackage reports whether pkg hosts bounded search loops — the
// hot paths where boundcheck requires every heap-pop loop to consult
// the query's Bound (or an equivalent cancellation poll). The pqueue
// package is deliberately excluded: the queue implementations pop
// freely (a Pop that did not pop would be absurd); the discipline
// attaches to the loops that drain them.
func SearchPackage(path string) bool {
	switch path {
	case "kpj/internal/core", "kpj/internal/sssp", "kpj/internal/deviation":
		return true
	}
	return false
}
