package graph

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"kpj/internal/fault"
)

// lineGraph builds 0 -1-> 1 -2-> 2 ... with weight i+1 on edge (i, i+1),
// plus the reverse direction at the same weights.
func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddBiEdge(NodeID(i), NodeID(i+1), Weight(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func edgeList(g *Graph) map[[2]NodeID]Weight {
	out := map[[2]NodeID]Weight{}
	for u := 0; u < g.NumNodes(); u++ {
		for _, e := range g.Out(NodeID(u)) {
			out[[2]NodeID{NodeID(u), e.To}] = e.W
		}
	}
	return out
}

func TestApplyEdgeMutations(t *testing.T) {
	g := lineGraph(t, 5)
	if err := g.AddCategory("poi", []NodeID{1, 3}); err != nil {
		t.Fatal(err)
	}
	before := edgeList(g)

	d := &Delta{
		SetWeights: []EdgeUpdate{{U: 0, V: 1, W: 50}},
		Inserts:    []EdgeUpdate{{U: 0, V: 4, W: 7}},
		Deletes:    []EdgeRef{{U: 3, V: 2}},
	}
	ng, eff, err := Apply(g, d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}

	// Old graph untouched.
	if !reflect.DeepEqual(edgeList(g), before) {
		t.Fatal("Apply mutated the original graph")
	}
	if w, ok := ng.HasEdge(0, 1); !ok || w != 50 {
		t.Fatalf("setWeight: edge (0,1) = %d,%v; want 50", w, ok)
	}
	if w, ok := ng.HasEdge(0, 4); !ok || w != 7 {
		t.Fatalf("insert: edge (0,4) = %d,%v; want 7", w, ok)
	}
	if _, ok := ng.HasEdge(3, 2); ok {
		t.Fatal("delete: edge (3,2) still present")
	}
	if ng.NumEdges() != g.NumEdges() { // one insert, one delete
		t.Fatalf("edges: %d, want %d", ng.NumEdges(), g.NumEdges())
	}
	if ng.MaxEdgeWeight() != 50 {
		t.Fatalf("maxW: %d, want 50", ng.MaxEdgeWeight())
	}

	want := []EdgeChange{
		{U: 0, V: 1, Old: 1, New: 50},
		{U: 0, V: 4, Old: Infinity, New: 7},
		{U: 3, V: 2, Old: 3, New: Infinity},
	}
	if !reflect.DeepEqual(eff.Changes, want) {
		t.Fatalf("changes: %+v, want %+v", eff.Changes, want)
	}
	if len(eff.OldCategorySets) != 0 {
		t.Fatalf("no POI ops, but OldCategorySets = %v", eff.OldCategorySets)
	}
	// Untouched category shared with the new graph.
	nodes, err := ng.Category("poi")
	if err != nil || !reflect.DeepEqual(nodes, []NodeID{1, 3}) {
		t.Fatalf("category poi: %v, %v", nodes, err)
	}
}

func TestApplyPOIMutations(t *testing.T) {
	g := lineGraph(t, 5)
	if err := g.AddCategory("hotel", []NodeID{1, 3}); err != nil {
		t.Fatal(err)
	}
	d := &Delta{
		AddPOIs:    []POIUpdate{{Category: "hotel", Node: 0}, {Category: "fuel", Node: 4}},
		RemovePOIs: []POIUpdate{{Category: "hotel", Node: 3}},
	}
	ng, eff, err := Apply(g, d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if nodes, _ := ng.Category("hotel"); !reflect.DeepEqual(nodes, []NodeID{0, 1}) {
		t.Fatalf("hotel: %v, want [0 1]", nodes)
	}
	if nodes, _ := ng.Category("fuel"); !reflect.DeepEqual(nodes, []NodeID{4}) {
		t.Fatalf("fuel: %v, want [4]", nodes)
	}
	if !reflect.DeepEqual(ng.Categories(), []string{"fuel", "hotel"}) {
		t.Fatalf("categories: %v", ng.Categories())
	}
	// Old graph still has the original membership.
	if nodes, _ := g.Category("hotel"); !reflect.DeepEqual(nodes, []NodeID{1, 3}) {
		t.Fatalf("original hotel mutated: %v", nodes)
	}
	if _, err := g.Category("fuel"); err == nil {
		t.Fatal("fuel leaked into the original graph")
	}
	if got := eff.OldCategorySets["hotel"]; !reflect.DeepEqual(got, []NodeID{1, 3}) {
		t.Fatalf("old hotel set: %v", got)
	}
	if set, ok := eff.OldCategorySets["fuel"]; !ok || set != nil {
		t.Fatalf("old fuel set: %v, %v (want present, nil)", set, ok)
	}
	if len(eff.Changes) != 0 {
		t.Fatalf("no edge ops, but changes = %v", eff.Changes)
	}
}

func TestApplyEmptiedCategoryIsRemoved(t *testing.T) {
	g := lineGraph(t, 3)
	if err := g.AddCategory("solo", []NodeID{2}); err != nil {
		t.Fatal(err)
	}
	ng, _, err := Apply(g, &Delta{RemovePOIs: []POIUpdate{{Category: "solo", Node: 2}}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := ng.Category("solo"); err == nil {
		t.Fatal("emptied category still present")
	}
	if len(ng.Categories()) != 0 {
		t.Fatalf("categories: %v", ng.Categories())
	}
}

func TestApplySequentialSemantics(t *testing.T) {
	g := lineGraph(t, 4)
	// Delete (1,2) then re-insert it at a new weight, in one delta.
	d := &Delta{
		Inserts: []EdgeUpdate{{U: 1, V: 2, W: 99}},
		Deletes: []EdgeRef{},
	}
	// Insert of an existing edge must fail...
	if _, _, err := Apply(g, d); !errors.Is(err, ErrEdgeExists) {
		t.Fatalf("insert existing: %v", err)
	}
	// ...unless the delta deletes it first (field order: deletes run
	// before nothing here — inserts precede deletes, so use two steps).
	d2 := &Delta{Deletes: []EdgeRef{{U: 1, V: 2}}}
	mid, _, err := Apply(g, d2)
	if err != nil {
		t.Fatal(err)
	}
	ng, eff, err := Apply(mid, &Delta{Inserts: []EdgeUpdate{{U: 1, V: 2, W: 99}}})
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := ng.HasEdge(1, 2); !ok || w != 99 {
		t.Fatalf("re-insert: %d, %v", w, ok)
	}
	if !reflect.DeepEqual(eff.Changes, []EdgeChange{{U: 1, V: 2, Old: Infinity, New: 99}}) {
		t.Fatalf("changes: %+v", eff.Changes)
	}
	// A set-then-set collapses to one net change.
	ng2, eff2, err := Apply(g, &Delta{SetWeights: []EdgeUpdate{{U: 1, V: 2, W: 5}, {U: 1, V: 2, W: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := ng2.HasEdge(1, 2); w != 2 {
		t.Fatalf("last set wins: %d", w)
	}
	if len(eff2.Changes) != 1 || eff2.Changes[0].New != 2 || eff2.Changes[0].Old != 2 {
		// edge (1,2) has weight 2 in lineGraph: net change cancels out.
		if len(eff2.Changes) != 0 {
			t.Fatalf("cancelled change reported: %+v", eff2.Changes)
		}
	}
}

func TestApplyValidation(t *testing.T) {
	g := lineGraph(t, 3)
	if err := g.AddCategory("c", []NodeID{1}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    *Delta
		want error
	}{
		{"node range", &Delta{SetWeights: []EdgeUpdate{{U: 0, V: 99, W: 1}}}, ErrNodeRange},
		{"negative weight", &Delta{SetWeights: []EdgeUpdate{{U: 0, V: 1, W: -1}}}, ErrNegativeWeight},
		{"huge weight", &Delta{Inserts: []EdgeUpdate{{U: 0, V: 2, W: Infinity}}}, ErrWeightRange},
		{"set missing", &Delta{SetWeights: []EdgeUpdate{{U: 0, V: 2, W: 1}}}, ErrEdgeMissing},
		{"insert existing", &Delta{Inserts: []EdgeUpdate{{U: 0, V: 1, W: 1}}}, ErrEdgeExists},
		{"delete missing", &Delta{Deletes: []EdgeRef{{U: 0, V: 2}}}, ErrEdgeMissing},
		{"add member", &Delta{AddPOIs: []POIUpdate{{Category: "c", Node: 1}}}, ErrPOIExists},
		{"remove non-member", &Delta{RemovePOIs: []POIUpdate{{Category: "c", Node: 0}}}, ErrPOIMissing},
		{"remove unknown cat", &Delta{RemovePOIs: []POIUpdate{{Category: "x", Node: 0}}}, ErrPOIMissing},
		{"empty cat name", &Delta{AddPOIs: []POIUpdate{{Category: "", Node: 0}}}, ErrEmptyCatName},
	}
	for _, tc := range cases {
		ng, eff, err := Apply(g, tc.d)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if !errors.Is(err, ErrBadDelta) {
			t.Errorf("%s: err %v does not wrap ErrBadDelta", tc.name, err)
		}
		if ng != nil || eff != nil {
			t.Errorf("%s: failed apply returned a graph", tc.name)
		}
	}
}

func TestApplyEmptyDelta(t *testing.T) {
	g := lineGraph(t, 3)
	ng, eff, err := Apply(g, &Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(edgeList(ng), edgeList(g)) {
		t.Fatal("empty delta changed edges")
	}
	if len(eff.Changes) != 0 || len(eff.OldCategorySets) != 0 {
		t.Fatalf("empty delta reported effects: %+v", eff)
	}
	if !(&Delta{}).Empty() || (&Delta{Deletes: []EdgeRef{{}}}).Empty() {
		t.Fatal("Empty misclassifies")
	}
}

func TestApplyFaultKeepsOriginal(t *testing.T) {
	g := lineGraph(t, 4)
	reg := fault.New().Add(fault.Rule{Point: fault.GraphApply, Nth: 2})
	fault.Install(reg)
	defer fault.Install(nil)
	d := &Delta{SetWeights: []EdgeUpdate{{U: 0, V: 1, W: 9}, {U: 1, V: 2, W: 9}}}
	ng, eff, err := Apply(g, d)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if ng != nil || eff != nil {
		t.Fatal("faulted apply returned a graph")
	}
	if w, _ := g.HasEdge(0, 1); w != 1 {
		t.Fatalf("original graph mutated: (0,1) = %d", w)
	}
	if got := reg.Hits(fault.GraphApply); got != 2 {
		t.Fatalf("fault point hit %d times, want 2 (once per op)", got)
	}
}

func TestDeltaJSONRoundTrip(t *testing.T) {
	d := &Delta{
		SetWeights: []EdgeUpdate{{U: 1, V: 2, W: 30}},
		Inserts:    []EdgeUpdate{{U: 3, V: 4, W: 5}},
		Deletes:    []EdgeRef{{U: 5, V: 6}},
		AddPOIs:    []POIUpdate{{Category: "hotel", Node: 7}},
		RemovePOIs: []POIUpdate{{Category: "fuel", Node: 8}},
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Delta
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, d) {
		t.Fatalf("round trip: %+v vs %+v", back, d)
	}
	if d.Ops() != 5 {
		t.Fatalf("Ops: %d", d.Ops())
	}
}
