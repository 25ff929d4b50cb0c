package kpj_test

import (
	"errors"
	"testing"

	"kpj"
)

// deltaGraph: two disjoint 4-cycles (nodes 0..3 and 4..7) with one
// category in each component.
func deltaGraph(t *testing.T) *kpj.Graph {
	t.Helper()
	b := kpj.NewBuilder(8)
	for _, base := range []kpj.NodeID{0, 4} {
		for i := kpj.NodeID(0); i < 4; i++ {
			b.AddEdge(base+i, base+(i+1)%4, 2)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddCategory("a", []kpj.NodeID{1, 3}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddCategory("b", []kpj.NodeID{5, 7}); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWithDelta(t *testing.T) {
	g := deltaGraph(t)
	ng, err := g.WithDelta(&kpj.Delta{
		SetWeights: []kpj.EdgeUpdate{{U: 0, V: 1, W: 9}},
		AddPOIs:    []kpj.POIUpdate{{Category: "a", Node: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := g.Category("a"); len(got) != 2 {
		t.Fatal("old graph's category mutated")
	}
	if got, _ := ng.Category("a"); len(got) != 3 {
		t.Fatalf("new category = %v", got)
	}
	// Queries work on both generations independently.
	oldPaths, err := g.TopKJoin(0, "a", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	newPaths, err := ng.TopKJoin(0, "a", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if oldPaths[0].Length != 2 {
		t.Fatalf("old best = %d, want 2", oldPaths[0].Length)
	}
	// On the new graph the only way out of 0 is the reweighted 0->1 (9).
	if newPaths[0].Length != 9 {
		t.Fatalf("new best = %d, want 9", newPaths[0].Length)
	}
	// Invalid delta: untouched graph, error surfaced.
	if _, err := g.WithDelta(&kpj.Delta{Deletes: []kpj.EdgeRef{{U: 0, V: 3}}}); err == nil {
		t.Fatal("deleting a missing edge succeeded")
	}
}

func TestIndexApplyMatchesRebuild(t *testing.T) {
	g := deltaGraph(t)
	ix, err := kpj.BuildIndex(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := &kpj.Delta{
		SetWeights: []kpj.EdgeUpdate{{U: 0, V: 1, W: 1}},
		Inserts:    []kpj.EdgeUpdate{{U: 0, V: 2, W: 3}},
	}
	app, err := ix.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := kpj.BuildIndexWithLandmarks(app.Graph, ix.Landmarks())
	if err != nil {
		t.Fatal(err)
	}
	if app.Index.TablesChecksum() != ref.TablesChecksum() {
		t.Fatal("applied index differs from from-scratch rebuild")
	}
	if app.Index.Fingerprint() == ix.Fingerprint() {
		t.Fatal("fingerprint did not move with the graph")
	}
	if app.Stats.Landmarks != 4 {
		t.Fatalf("stats = %+v", app.Stats)
	}
	// Old pair still queryable.
	if _, err := g.TopKJoin(0, "a", 2, &kpj.Options{Index: ix}); err != nil {
		t.Fatal(err)
	}
	// New pair agrees with an unindexed query on the new graph.
	got, err := app.Graph.TopKJoin(0, "a", 3, &kpj.Options{Index: app.Index})
	if err != nil {
		t.Fatal(err)
	}
	want, err := app.Graph.TopKJoin(0, "a", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d paths, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Length != want[i].Length {
			t.Fatalf("path %d: %d vs %d", i, got[i].Length, want[i].Length)
		}
	}
}

func TestIndexApplyInvalidDeltaKeepsOld(t *testing.T) {
	g := deltaGraph(t)
	ix, err := kpj.BuildIndex(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := ix.TablesChecksum()
	_, err = ix.Apply(&kpj.Delta{Inserts: []kpj.EdgeUpdate{{U: 0, V: 1, W: 5}}}) // exists
	if err == nil {
		t.Fatal("inserting an existing edge succeeded")
	}
	if ix.TablesChecksum() != before {
		t.Fatal("failed apply mutated the index")
	}
}

func TestApplyErrorsWrapBadDelta(t *testing.T) {
	g := deltaGraph(t)
	_, err := g.WithDelta(&kpj.Delta{RemovePOIs: []kpj.POIUpdate{{Category: "a", Node: 0}}})
	if !errors.Is(err, kpj.ErrBadDelta) {
		t.Fatalf("err = %v, want ErrBadDelta", err)
	}
}
