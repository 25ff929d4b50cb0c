package core

import (
	"math/rand"
	"testing"

	"kpj/internal/graph"
	"kpj/internal/landmark"
	"kpj/internal/sssp"
	"kpj/internal/testgraphs"
)

func TestZeroHeuristic(t *testing.T) {
	var h zeroHeuristic
	for _, v := range []graph.NodeID{0, 1, 1000} {
		if h.H(v) != 0 {
			t.Fatalf("H(%d) = %d", v, h.H(v))
		}
	}
}

func TestCategoryHeuristicVirtuals(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	ix, err := landmark.Build(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := newForwardSpace(g, []graph.NodeID{testgraphs.V1}, hotels)
	h := categoryHeuristic{Space: sp, Bounds: ix.BoundsToSet(hotels)}
	if h.H(sp.Goal) != 0 {
		t.Fatal("H(virtual goal) must be 0")
	}
	if h.H(graph.NodeID(g.NumNodes()+1)) != 0 {
		t.Fatal("H(virtual source) must be 0")
	}
	// Physical hotels carry bound 0; other nodes stay admissible.
	exact := sssp.DistancesToSet(g, hotels)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if h.H(v) > exact[v] {
			t.Fatalf("H(%d) = %d > δ = %d", v, h.H(v), exact[v])
		}
	}
}

func TestSourceHeuristicAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testgraphs.RandomConnected(rng, 40, 120, 20)
	targets := testgraphs.RandomCategory(rng, g, "T", 3)
	ix, err := landmark.Build(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := graph.NodeID(5)
	rev := newReverseSpace(g, []graph.NodeID{src}, targets)
	h := sourceHeuristic{Space: rev, Index: ix, Source: src}
	// Remaining distance from v to the reverse goal s is δ_G(s, v).
	exact := sssp.Dijkstra(g, graph.Forward, src)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if h.H(v) > exact[v] {
			t.Fatalf("H(%d) = %d > δ(s,v) = %d", v, h.H(v), exact[v])
		}
	}
	if h.H(rev.Root) != 0 {
		t.Fatal("H(virtual root) must be 0")
	}
}

func TestSourceSetHeuristicAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := testgraphs.RandomConnected(rng, 40, 120, 20)
	targets := testgraphs.RandomCategory(rng, g, "T", 3)
	sources := testgraphs.RandomCategory(rng, g, "S", 4)
	ix, err := landmark.Build(g, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rev := newReverseSpace(g, sources, targets)
	h := sourceSetHeuristic{Space: rev, Bounds: ix.BoundsFromSet(sources, new(landmark.FromBounds))}
	offsets := make([]graph.Weight, len(sources))
	exact := sssp.DijkstraOffsets(g, graph.Forward, sources, offsets)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if h.H(v) > exact[v] {
			t.Fatalf("H(%d) = %d > min_u δ(u,v) = %d", v, h.H(v), exact[v])
		}
	}
	if h.H(rev.Goal) != 0 {
		t.Fatal("H(virtual goal) must be 0")
	}
}

// nextTau must grow strictly, respect α, and saturate at Infinity.
func TestNextTau(t *testing.T) {
	e := &engine{alpha: 1.5}
	if tau := e.nextTau(100, 0, false); tau != 150 {
		t.Fatalf("nextTau(100) = %d, want 150", tau)
	}
	if tau := e.nextTau(100, 200, true); tau != 300 {
		t.Fatalf("nextTau(100, top 200) = %d, want 300", tau)
	}
	// Zero inputs still make progress.
	if tau := e.nextTau(0, 0, true); tau < 1 {
		t.Fatalf("nextTau(0) = %d, want >= 1", tau)
	}
	// Huge bounds saturate rather than overflow.
	if tau := e.nextTau(graph.Infinity-1, 0, false); tau != graph.Infinity {
		t.Fatalf("nextTau(huge) = %d, want Infinity", tau)
	}
	// BestFirst mode (alpha <= 0) always resolves exactly.
	bf := &engine{alpha: 0}
	if tau := bf.nextTau(5, 9, true); tau != graph.Infinity {
		t.Fatalf("best-first nextTau = %d, want Infinity", tau)
	}
}
