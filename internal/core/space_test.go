package core

import (
	"testing"

	"kpj/internal/graph"
	"kpj/internal/testgraphs"
)

func collectExpand(sp *Space, v graph.NodeID) map[graph.NodeID]graph.Weight {
	out := map[graph.NodeID]graph.Weight{}
	sp.expand(v, func(to graph.NodeID, w graph.Weight) { out[to] = w })
	return out
}

func TestForwardSpaceSingleSource(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	sp := NewForwardSpace(g, []graph.NodeID{testgraphs.V1}, hotels)
	if sp.Root != testgraphs.V1 {
		t.Fatalf("Root = %d, want v1", sp.Root)
	}
	if !sp.IsVirtual(sp.Goal) || sp.Goal != graph.NodeID(g.NumNodes()) {
		t.Fatalf("Goal = %d, want virtual target %d", sp.Goal, g.NumNodes())
	}
	if sp.numSpaceNodes() != g.NumNodes()+2 {
		t.Fatalf("numSpaceNodes = %d", sp.numSpaceNodes())
	}
	// v8 expands to its graph neighbours only.
	exp := collectExpand(sp, testgraphs.V8)
	if w, ok := exp[testgraphs.V7]; !ok || w != 3 {
		t.Fatalf("v8 expansion missing (v7,3): %v", exp)
	}
	if _, ok := exp[sp.Goal]; ok {
		t.Fatal("v8 is not a hotel but expands to goal")
	}
	// A hotel node additionally expands to the goal with weight 0.
	exp = collectExpand(sp, testgraphs.V7)
	if w, ok := exp[sp.Goal]; !ok || w != 0 {
		t.Fatalf("v7 (hotel) should expand to goal with 0: %v", exp)
	}
	// The goal never expands.
	if got := collectExpand(sp, sp.Goal); len(got) != 0 {
		t.Fatalf("goal expansion = %v, want none", got)
	}
}

func TestForwardSpaceVirtualSource(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	srcs := []graph.NodeID{testgraphs.V1, testgraphs.V9}
	sp := NewForwardSpace(g, srcs, hotels)
	if !sp.IsVirtual(sp.Root) {
		t.Fatal("multi-source space must have a virtual root")
	}
	exp := collectExpand(sp, sp.Root)
	if len(exp) != 2 || exp[testgraphs.V1] != 0 || exp[testgraphs.V9] != 0 {
		t.Fatalf("virtual root expansion = %v", exp)
	}
	if got := sp.RootMembers(); len(got) != 2 {
		t.Fatalf("RootMembers = %v", got)
	}
}

func TestReverseSpace(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	sp := NewReverseSpace(g, []graph.NodeID{testgraphs.V1}, hotels)
	if !sp.IsVirtual(sp.Root) {
		t.Fatal("reverse root must be the virtual target")
	}
	if sp.Goal != testgraphs.V1 {
		t.Fatalf("reverse goal = %d, want v1", sp.Goal)
	}
	exp := collectExpand(sp, sp.Root)
	if len(exp) != len(hotels) {
		t.Fatalf("reverse root expands to %v, want all hotels", exp)
	}
	// Physical expansion walks in-edges: v7's in-neighbours include v13.
	exp = collectExpand(sp, testgraphs.V7)
	if w, ok := exp[testgraphs.V13]; !ok || w != 10 {
		t.Fatalf("reverse expansion of v7 = %v, want v13 with 10", exp)
	}
	// The physical goal does not expand (extensions beyond it can never
	// produce simple result paths).
	if got := collectExpand(sp, sp.Goal); len(got) != 0 {
		t.Fatalf("goal expansion = %v, want none", got)
	}
}

func TestMaterializeForward(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	sp := NewForwardSpace(g, []graph.NodeID{testgraphs.V1}, hotels)
	p := Path{Nodes: sp.materializeInto(nil, []graph.NodeID{testgraphs.V1, testgraphs.V8, testgraphs.V7, sp.Goal}), Length: 5}
	if p.Length != 5 || len(p.Nodes) != 3 || p.Nodes[0] != testgraphs.V1 || p.Nodes[2] != testgraphs.V7 {
		t.Fatalf("materializeInto = %v", p)
	}
	if p.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestMaterializeReverse(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	sp := NewReverseSpace(g, []graph.NodeID{testgraphs.V1}, hotels)
	p := Path{Nodes: sp.materializeInto(nil, []graph.NodeID{sp.Root, testgraphs.V7, testgraphs.V8, testgraphs.V1}), Length: 5}
	if len(p.Nodes) != 3 || p.Nodes[0] != testgraphs.V1 || p.Nodes[1] != testgraphs.V8 || p.Nodes[2] != testgraphs.V7 {
		t.Fatalf("reverse materializeInto = %v, want v1,v8,v7", p)
	}
}

func TestPseudoTreeInsertAndExclude(t *testing.T) {
	pt := newPseudoTree(100)
	if pt.Len() != 1 || pt.Node(0) != 100 || pt.Parent(0) != -1 || pt.PrefixLen(0) != 0 {
		t.Fatal("bad root vertex")
	}
	// Insert path 100→5→7 with cumulative lengths 2, 6. The created ids are
	// the consecutive range starting at the returned first vertex.
	first := pt.InsertSuffix(0, []graph.NodeID{5, 7}, []graph.Weight{2, 6})
	if first != 1 || pt.Len() != 3 {
		t.Fatalf("first = %d, Len = %d, want 1, 3", first, pt.Len())
	}
	if pt.Node(first) != 5 || pt.PrefixLen(first) != 2 {
		t.Fatal("first suffix vertex wrong")
	}
	if pt.Node(first+1) != 7 || pt.PrefixLen(first+1) != 6 || pt.Parent(first+1) != first {
		t.Fatal("second suffix vertex wrong")
	}
	if !pt.ExcludedHas(0, 5) || pt.ExcludedHas(0, 9) || pt.ExcludedLen(0) != 1 {
		t.Fatalf("root exclusions: has5=%v has9=%v len=%d, want [5]",
			pt.ExcludedHas(0, 5), pt.ExcludedHas(0, 9), pt.ExcludedLen(0))
	}
	// Insert a second path deviating at the root: 100→9.
	pt.InsertSuffix(0, []graph.NodeID{9}, []graph.Weight{4})
	if !pt.ExcludedHas(0, 5) || !pt.ExcludedHas(0, 9) || pt.ExcludedLen(0) != 2 {
		t.Fatalf("root exclusions len=%d, want [5 9]", pt.ExcludedLen(0))
	}
	// Prefix path of the deep vertex.
	if p := pt.PrefixPath(first + 1); len(p) != 3 || p[0] != 100 || p[1] != 5 || p[2] != 7 {
		t.Fatalf("PrefixPath = %v", p)
	}
	// AppendPrefixPath reuses the destination buffer in place.
	buf := make([]graph.NodeID, 0, 8)
	if p := pt.AppendPrefixPath(buf, first+1); len(p) != 3 || p[2] != 7 || &p[0] != &buf[:1][0] {
		t.Fatalf("AppendPrefixPath = %v (reuse=%v)", p, len(p) == 3 && &p[0] == &buf[:1][0])
	}
	// Prefix enumeration visits bottom-up.
	var seen []graph.NodeID
	pt.PrefixNodes(first+1, func(v graph.NodeID) { seen = append(seen, v) })
	if len(seen) != 3 || seen[0] != 7 || seen[2] != 100 {
		t.Fatalf("PrefixNodes order = %v", seen)
	}
	// Reset drops every vertex but keeps the root usable.
	pt.Reset(42)
	if pt.Len() != 1 || pt.Node(0) != 42 || pt.ExcludedLen(0) != 0 {
		t.Fatalf("after Reset: Len=%d Node=%d excl=%d", pt.Len(), pt.Node(0), pt.ExcludedLen(0))
	}
}

func TestPseudoTreeInsertMismatchPanics(t *testing.T) {
	pt := newPseudoTree(0)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on suffix/lens mismatch")
		}
	}()
	pt.InsertSuffix(0, []graph.NodeID{1}, nil)
}
