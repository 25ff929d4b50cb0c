package sssp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kpj/internal/graph"
	"kpj/internal/testgraphs"
)

// bellmanFord is the reference SSSP used to validate Dijkstra.
func bellmanFord(g *graph.Graph, dir graph.Direction, sources []graph.NodeID, offsets []graph.Weight) []graph.Weight {
	n := g.NumNodes()
	dist := make([]graph.Weight, n)
	for i := range dist {
		dist[i] = graph.Infinity
	}
	for i, s := range sources {
		if offsets[i] < dist[s] {
			dist[s] = offsets[i]
		}
	}
	for iter := 0; iter < n; iter++ {
		changed := false
		for v := graph.NodeID(0); int(v) < n; v++ {
			if dist[v] >= graph.Infinity {
				continue
			}
			for _, e := range g.Edges(dir, v) {
				if nd := dist[v] + e.W; nd < dist[e.To] {
					dist[e.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDijkstraMatchesBellmanFordRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		g := testgraphs.Random(rng, n, 3, 20, trial%2 == 0)
		src := graph.NodeID(rng.Intn(n))
		for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
			tree := Dijkstra(g, dir, src)
			want := bellmanFord(g, dir, []graph.NodeID{src}, []graph.Weight{0})
			for v := 0; v < n; v++ {
				if tree.Dist[v] != want[v] {
					t.Fatalf("trial %d dir %v: Dist[%d] = %d, want %d", trial, dir, v, tree.Dist[v], want[v])
				}
			}
		}
	}
}

func TestDijkstraMultiSourceOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(30)
		g := testgraphs.Random(rng, n, 3, 15, false)
		k := 1 + rng.Intn(4)
		sources := make([]graph.NodeID, k)
		offsets := make([]graph.Weight, k)
		for i := range sources {
			sources[i] = graph.NodeID(rng.Intn(n))
			offsets[i] = graph.Weight(rng.Intn(10))
		}
		tree := DijkstraOffsets(g, graph.Forward, sources, offsets)
		want := bellmanFord(g, graph.Forward, sources, offsets)
		for v := 0; v < n; v++ {
			if tree.Dist[v] != want[v] {
				t.Fatalf("trial %d: Dist[%d] = %d, want %d", trial, v, tree.Dist[v], want[v])
			}
		}
	}
}

func TestDijkstraTreeParentsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testgraphs.RandomConnected(rng, 60, 120, 30)
	tree := Dijkstra(g, graph.Forward, 0)
	for v := graph.NodeID(1); int(v) < g.NumNodes(); v++ {
		p := tree.Parent[v]
		if p < 0 {
			t.Fatalf("connected graph: node %d has no parent", v)
		}
		w, ok := g.HasEdge(p, v)
		if !ok {
			t.Fatalf("parent edge (%d,%d) missing", p, v)
		}
		if tree.Dist[p]+w != tree.Dist[v] {
			t.Fatalf("tree edge (%d,%d): %d + %d != %d", p, v, tree.Dist[p], w, tree.Dist[v])
		}
	}
}

func TestDistancesToSetFig1(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, err := g.Category(testgraphs.HotelCategory)
	if err != nil {
		t.Fatal(err)
	}
	dist := DistancesToSet(g, hotels)
	// From the fixture: δ(v1, {v4,v6,v7}) = 5 via (v1,v8,v7).
	if dist[testgraphs.V1] != 5 {
		t.Fatalf("dist(v1,H) = %d, want 5", dist[testgraphs.V1])
	}
	for _, h := range hotels {
		if dist[h] != 0 {
			t.Fatalf("dist(%d,H) = %d, want 0", h, dist[h])
		}
	}
	// δ(v5, H) = 2 via (v5,v6).
	if dist[testgraphs.V5] != 2 {
		t.Fatalf("dist(v5,H) = %d, want 2", dist[testgraphs.V5])
	}
}

// Property (testing/quick): Dijkstra's output is a relaxation fixpoint —
// dist[src] = 0, every edge satisfies dist[v] ≤ dist[u] + w, and every
// reached node's parent edge is tight.
func TestDijkstraFixpointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	check := func(nRaw uint8, degRaw, srcRaw uint16, undirected bool) bool {
		n := 1 + int(nRaw%40)
		g := testgraphs.Random(rng, n, 1+int(degRaw%4), 12, undirected)
		src := graph.NodeID(int(srcRaw) % n)
		tree := Dijkstra(g, graph.Forward, src)
		if tree.Dist[src] != 0 {
			return false
		}
		for u := graph.NodeID(0); int(u) < n; u++ {
			if !tree.Reached(u) {
				continue
			}
			for _, e := range g.Out(u) {
				if tree.Dist[e.To] > tree.Dist[u]+e.W {
					return false // relaxable edge remains
				}
			}
			if p := tree.Parent[u]; p >= 0 {
				w, ok := g.HasEdge(p, u)
				if !ok || tree.Dist[p]+w != tree.Dist[u] {
					return false // parent edge not tight
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraPanics(t *testing.T) {
	g, err := graph.NewBuilder(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	assertPanics(t, "no sources", func() { Dijkstra(g, graph.Forward) })
	assertPanics(t, "source range", func() { Dijkstra(g, graph.Forward, 5) })
	assertPanics(t, "offset mismatch", func() {
		DijkstraOffsets(g, graph.Forward, []graph.NodeID{0}, nil)
	})
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}
