package core

import (
	"errors"
	"testing"

	"kpj/internal/graph"
	"kpj/internal/testgraphs"
)

// Every row of the variant table rejects a malformed query or workspace
// with the same error; only the τ-bounding rows need an alpha above 1, and
// every row that resolves exactly accepts and ignores a bad one.
func TestValidationErrors(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	base := Query{Sources: []graph.NodeID{0}, Targets: hotels, K: 2}
	tests := []struct {
		name string
		q    Query
		opt  Options
		want error
	}{
		{"zero k", Query{Sources: base.Sources, Targets: base.Targets, K: 0}, Options{}, ErrBadK},
		{"no sources", Query{Targets: base.Targets, K: 1}, Options{}, ErrNoSources},
		{"no targets", Query{Sources: base.Sources, K: 1}, Options{}, ErrNoTargets},
		{"source range", Query{Sources: []graph.NodeID{99}, Targets: base.Targets, K: 1}, Options{}, graph.ErrNodeRange},
		{"target range", Query{Sources: base.Sources, Targets: []graph.NodeID{-1}, K: 1}, Options{}, graph.ErrNodeRange},
		{"bad alpha", base, Options{Alpha: 0.5}, ErrBadAlpha},
		{"small workspace", base, Options{Workspace: NewWorkspace(3)}, ErrWorkspace},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, v := range variants {
				want := tt.want
				if want == ErrBadAlpha && !v.tau {
					want = nil // the exact rows ignore alpha entirely
				}
				if _, err := v.run(g, tt.q, tt.opt); !errors.Is(err, want) {
					t.Fatalf("%s: err = %v, want %v", v.name, err, want)
				}
			}
		})
	}
}
