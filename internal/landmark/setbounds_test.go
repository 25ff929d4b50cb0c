package landmark

import (
	"math/rand"
	"testing"

	"kpj/internal/graph"
	"kpj/internal/sssp"
	"kpj/internal/testgraphs"
)

// Admissibility of the source-set bound: lb(S,v) <= min_{u∈S} δ(u,v), and
// Infinity only when v is unreachable from every source.
func TestBoundsFromSetAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		var g *graph.Graph
		if trial%2 == 0 {
			g = testgraphs.RandomConnected(rng, n, n, 20)
		} else {
			g = testgraphs.Random(rng, n, 2, 20, false)
		}
		ix, err := Build(g, 1+rng.Intn(5), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		size := 1 + rng.Intn(n)
		sources := testgraphs.RandomCategory(rng, g, "S", size)
		bounds := ix.BoundsFromSet(sources, new(FromBounds))
		offsets := make([]graph.Weight, len(sources))
		exact := sssp.DijkstraOffsets(g, graph.Forward, sources, offsets).Dist
		for v := graph.NodeID(0); int(v) < n; v++ {
			lb := bounds.LowerBound(v)
			if lb > exact[v] {
				t.Fatalf("trial %d: lb(S,%d) = %d > δ = %d (|S|=%d)", trial, v, lb, exact[v], size)
			}
			if lb >= graph.Infinity && exact[v] < graph.Infinity {
				t.Fatalf("trial %d: lb(S,%d) = Inf but δ = %d", trial, v, exact[v])
			}
		}
	}
}

func TestBoundsFromSetPanicsOnEmpty(t *testing.T) {
	g := testgraphs.Fig1()
	ix, err := Build(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for empty source set")
		}
	}()
	ix.BoundsFromSet(nil, new(FromBounds))
}

func TestBoundsFromSetSingleton(t *testing.T) {
	g := testgraphs.Fig1()
	ix, err := Build(g, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := ix.BoundsFromSet([]graph.NodeID{testgraphs.V1}, new(FromBounds))
	exact := sssp.Dijkstra(g, graph.Forward, testgraphs.V1).Dist
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if lb := b.LowerBound(v); lb > exact[v] {
			t.Fatalf("lb(v1,%d) = %d > δ = %d", v, lb, exact[v])
		}
	}
	if lb := b.LowerBound(testgraphs.V1); lb != 0 {
		t.Fatalf("lb(v1,v1) = %d, want 0", lb)
	}
}
