package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"kpj/internal/core"
	"kpj/internal/graph"
	"kpj/internal/testgraphs"
)

// A hand-built graph where the Pascoal concatenation is provably
// non-simple, forcing the A* fallback (the branch random tests only hit
// probabilistically):
//
//	0→1 (5), 1→2 (1), 2→0 (1), 0→3 (1), 2→4 (2), 4→3 (2); target {3}.
//
// P1 = (0,3) with length 1. The second subspace ⟨(0), {(0,3)}⟩ has best
// first hop 1 with tree path 1→2→0→3 — but that concatenation revisits 0,
// so the candidate must come from the fallback search: (0,1,2,4,3) with
// length 10.
func pascoalTrap(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.NewBuilder(5).
		AddEdge(0, 1, 5).
		AddEdge(1, 2, 1).
		AddEdge(2, 0, 1).
		AddEdge(0, 3, 1).
		AddEdge(2, 4, 2).
		AddEdge(4, 3, 2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPascoalFallbackDeterministic(t *testing.T) {
	g := pascoalTrap(t)
	q := core.Query{Sources: []graph.NodeID{0}, Targets: []graph.NodeID{3}, K: 2}
	paths, err := core.DASPT(g, q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths", len(paths))
	}
	if paths[0].Length != 1 || !reflect.DeepEqual(paths[0].Nodes, []graph.NodeID{0, 3}) {
		t.Fatalf("P1 = %v", paths[0])
	}
	if paths[1].Length != 10 || !reflect.DeepEqual(paths[1].Nodes, []graph.NodeID{0, 1, 2, 4, 3}) {
		t.Fatalf("P2 = %v (fallback after non-simple Pascoal concatenation)", paths[1])
	}
	// DA must agree, confirming the fallback did not change semantics.
	ref, err := core.DA(g, q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i].Length != paths[i].Length {
			t.Fatalf("DA and DA-SPT disagree at %d: %v vs %v", i, ref[i], paths[i])
		}
	}
}

// The Pascoal shortcut itself must fire on a graph where the tree path is
// simple — verified through the work counters: a successful shortcut is
// counted as a LowerBounds increment, and a fallback as a Searches one.
func TestPascoalShortcutCounters(t *testing.T) {
	// Straight line 0→1→2→3: every candidate concatenation is simple.
	g, err := graph.NewBuilder(4).
		AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(2, 3, 1).
		AddEdge(0, 2, 5). // gives a genuine 2nd path
		Build()
	if err != nil {
		t.Fatal(err)
	}
	var st core.Stats
	q := core.Query{Sources: []graph.NodeID{0}, Targets: []graph.NodeID{3}, K: 2}
	paths, err := core.DASPT(g, q, core.Options{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || paths[0].Length != 3 || paths[1].Length != 6 {
		t.Fatalf("paths = %v", paths)
	}
	if st.LowerBounds == 0 {
		t.Fatalf("Pascoal shortcut never fired: %+v", st)
	}
	// The trap graph, by contrast, must register at least one fallback
	// search beyond the SPT build.
	var st2 core.Stats
	if _, err := core.DASPT(pascoalTrap(t), core.Query{Sources: []graph.NodeID{0}, Targets: []graph.NodeID{3}, K: 2}, core.Options{Stats: &st2}); err != nil {
		t.Fatal(err)
	}
	if st2.Searches == 0 {
		t.Fatalf("fallback search never ran: %+v", st2)
	}
}

// DA-SPT's Pascoal shortcut must not change results relative to DA across
// many k values on one graph (exercises both the shortcut and fallback
// branches).
func TestDASPTPascoalBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(1001))
	g := testgraphs.RandomConnected(rng, 60, 240, 12)
	targets := testgraphs.RandomCategory(rng, g, "T", 2)
	for k := 1; k <= 40; k += 3 {
		q := core.Query{Sources: []graph.NodeID{0}, Targets: targets, K: k}
		a, err := core.DA(g, q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.DASPT(g, q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lengthsOf(a), lengthsOf(b)) {
			t.Fatalf("k=%d: DA %v vs DA-SPT %v", k, lengthsOf(a), lengthsOf(b))
		}
	}
}
