// Package directive defines the kpjlint analyzer that validates the
// //kpjlint: directive comments themselves. Directives are load-bearing
// — a waiver that fails to parse silently re-enables a finding — so
// every edge case the other analyzers would quietly ignore is reported
// here instead: unknown kinds, malformed spelling, the block-comment
// form, and waivers without a reason.
package directive

import (
	"sort"
	"strings"

	"kpj/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "directive",
	Doc:  "validates //kpjlint: directive comments (unknown kinds, malformed forms, block comments, missing reasons)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	known := map[string]bool{}
	for _, k := range analysis.KnownDirectives {
		known[k] = true
	}
	for _, f := range pass.Files {
		for _, d := range analysis.Directives(f) {
			switch {
			case d.Malformed:
				pass.Reportf(d.Pos, "malformed kpjlint directive: kind must immediately follow the colon, as in //kpjlint:%s", d.Kind)
			case d.Block:
				pass.Reportf(d.Pos, "kpjlint directives must be line comments (//kpjlint:%s): block comments can be moved by gofmt, detaching the directive from its line", d.Kind)
			case !known[d.Kind]:
				pass.Reportf(d.Pos, "unknown kpjlint directive kind %q (known: %s)", d.Kind, strings.Join(sortedKinds(), ", "))
			case d.Reason == "":
				pass.Reportf(d.Pos, "//kpjlint:%s requires a reason explaining why the invariant holds", d.Kind)
			}
		}
	}
	return nil
}

func sortedKinds() []string {
	kinds := append([]string(nil), analysis.KnownDirectives...)
	sort.Strings(kinds)
	return kinds
}
