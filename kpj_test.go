package kpj_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"kpj"
	"kpj/internal/graph"
)

// fig1Graph rebuilds the paper's running example through the public API.
func fig1Graph() (*kpj.Graph, error) {
	b := kpj.NewBuilder(15)
	edges := []struct {
		u, v kpj.NodeID
		w    kpj.Weight
	}{
		{0, 1, 1}, {0, 7, 2}, {0, 2, 3}, {0, 10, 1},
		{7, 6, 3}, {7, 8, 10}, {7, 9, 8}, {1, 9, 8}, {8, 9, 1},
		{2, 3, 5}, {2, 4, 2}, {2, 5, 3}, {2, 6, 4}, {4, 5, 2},
		{5, 14, 2}, {10, 11, 1}, {11, 12, 1}, {12, 6, 10},
		{12, 13, 10}, {13, 6, 10},
	}
	for _, e := range edges {
		b.AddBiEdge(e.u, e.v, e.w)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return g, g.AddCategory("hotel", []kpj.NodeID{3, 5, 6})
}

func fig1(t *testing.T) *kpj.Graph {
	t.Helper()
	g, err := fig1Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var wantLengths = []kpj.Weight{5, 6, 7, 7, 8}

// allAlgorithms is the library's own name table: the oracle,
// bounded-execution, determinism, churn and chaos suites all range over
// it, so an engine cannot be named without joining every gate.
var allAlgorithms = kpj.Algorithms()

func TestTopKJoinAllAlgorithms(t *testing.T) {
	g := fig1(t)
	ix, err := kpj.BuildIndex(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range allAlgorithms {
		for _, withIndex := range []bool{false, true} {
			opt := &kpj.Options{Algorithm: algo}
			if withIndex {
				opt.Index = ix
			}
			paths, err := g.TopKJoin(0, "hotel", 5, opt)
			if err != nil {
				t.Fatalf("%v index=%v: %v", algo, withIndex, err)
			}
			got := make([]kpj.Weight, len(paths))
			for i, p := range paths {
				got[i] = p.Length
			}
			if !reflect.DeepEqual(got, wantLengths) {
				t.Fatalf("%v index=%v: lengths = %v, want %v", algo, withIndex, got, wantLengths)
			}
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	g := fig1(t)
	paths, err := g.TopKJoin(0, "hotel", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 || paths[0].Length != 5 {
		t.Fatalf("paths = %v", paths)
	}
}

func TestTopKIsKSP(t *testing.T) {
	g := fig1(t)
	paths, err := g.TopK(0, 6, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || paths[0].Length != 5 || paths[1].Length != 7 {
		t.Fatalf("KSP paths = %v", paths)
	}
	for _, p := range paths {
		if p.Nodes[len(p.Nodes)-1] != 6 {
			t.Fatalf("KSP path ends at %d", p.Nodes[len(p.Nodes)-1])
		}
	}
}

func TestTopKCategoryJoin(t *testing.T) {
	g := fig1(t)
	if err := g.AddCategory("start", []kpj.NodeID{0, 9}); err != nil {
		t.Fatal(err)
	}
	paths, err := g.TopKCategoryJoin("start", "hotel", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("got %d paths", len(paths))
	}
	if paths[0].Length != 5 {
		t.Fatalf("GKPJ P1 length = %d", paths[0].Length)
	}
	// Compare against explicit sets.
	same, err := g.TopKJoinSets([]kpj.NodeID{0, 9}, []kpj.NodeID{3, 5, 6}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(paths, same) {
		t.Fatalf("category join and set join disagree:\n%v\n%v", paths, same)
	}
}

func TestDuplicateIdsIgnored(t *testing.T) {
	g := fig1(t)
	a, err := g.TopKJoinSets([]kpj.NodeID{0, 0, 0}, []kpj.NodeID{6, 6, 3}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.TopKJoinSets([]kpj.NodeID{0}, []kpj.NodeID{3, 6}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("duplicates changed the result:\n%v\n%v", a, b)
	}
}

func TestQueryErrors(t *testing.T) {
	g := fig1(t)
	if _, err := g.TopKJoin(0, "nope", 1, nil); err == nil {
		t.Fatal("want error for unknown category")
	}
	if _, err := g.TopK(0, 6, 0, nil); err == nil {
		t.Fatal("want error for k = 0")
	}
	if _, err := g.TopK(99, 6, 1, nil); err == nil {
		t.Fatal("want error for out-of-range source")
	}
	bad := &kpj.Options{Algorithm: kpj.Algorithm(42)}
	if _, err := g.TopK(0, 6, 1, bad); !errors.Is(err, kpj.ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
	if kpj.Algorithm(42).String() == "" || kpj.IterBoundSPTI.String() != "IterBoundI" {
		t.Fatal("Algorithm.String misbehaves")
	}
	for _, a := range allAlgorithms {
		if got, err := kpj.ParseAlgorithm(a.String()); err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	if got, err := kpj.ParseAlgorithm(""); err != nil || got != kpj.IterBoundSPTI {
		t.Fatalf("ParseAlgorithm(\"\") = %v, %v; want the default", got, err)
	}
	for _, name := range []string{"nope", "iterboundi", "Algorithm(42)", "IterBoundI-NL"} {
		if _, err := kpj.ParseAlgorithm(name); !errors.Is(err, kpj.ErrUnknownAlgorithm) {
			t.Fatalf("ParseAlgorithm(%q): err = %v, want ErrUnknownAlgorithm", name, err)
		}
	}
	if _, err := g.TopK(0, 6, 1, &kpj.Options{Alpha: 0.3}); err == nil {
		t.Fatal("want error for alpha <= 1")
	}
}

func TestIndexAccessors(t *testing.T) {
	g := fig1(t)
	ix, err := kpj.BuildIndex(g, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Count() != 3 {
		t.Fatalf("Count = %d", ix.Count())
	}
	if ix.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
	if _, err := kpj.BuildIndex(g, 0, 1); err == nil {
		t.Fatal("want error for zero landmarks")
	}
}

func TestStatsThroughPublicAPI(t *testing.T) {
	g := fig1(t)
	var st kpj.Stats
	if _, err := g.TopKJoin(0, "hotel", 5, &kpj.Options{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.NodesPopped == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestGraphIORoundTripPublic(t *testing.T) {
	g := fig1(t)
	var gr, cat bytes.Buffer
	if err := graph.WriteGr(&gr, g.Unwrap()); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteCategories(&cat, g.Unwrap()); err != nil {
		t.Fatal(err)
	}
	g2, err := kpj.ReadGraph(&gr)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.ReadCategories(&cat); err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
	paths, err := g2.TopKJoin(0, "hotel", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if paths[4].Length != 8 {
		t.Fatalf("round-tripped query = %v", paths)
	}
	if got := g2.Categories(); len(got) != 1 || got[0] != "hotel" {
		t.Fatalf("Categories = %v", got)
	}
	if nodes, err := g2.Category("hotel"); err != nil || !reflect.DeepEqual(nodes, []kpj.NodeID{3, 5, 6}) {
		t.Fatalf("Category = %v, %v", nodes, err)
	}
}

func TestBuilderErrorsSurface(t *testing.T) {
	if _, err := kpj.NewBuilder(2).AddEdge(0, 5, 1).Build(); err == nil {
		t.Fatal("want range error")
	}
	if _, err := kpj.NewBuilder(2).AddEdge(0, 1, -3).Build(); err == nil {
		t.Fatal("want negative-weight error")
	}
}
