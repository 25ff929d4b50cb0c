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

// reweighed rebuilds g with every edge weight redrawn: zero for one edge
// in four, else base + [0, 20]. Base 2^31 puts keys far beyond int32 on
// the radix queue, next to zero-weight ties.
func reweighed(rng *rand.Rand, g *graph.Graph, base graph.Weight) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes())
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for _, e := range g.Out(u) {
			w := base + rng.Int63n(21)
			if rng.Intn(4) == 0 {
				w = 0
			}
			b.AddEdge(u, e.To, w)
		}
	}
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

func TestDijkstraMatchesBellmanFordRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wrng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		g := testgraphs.Random(rng, n, 3, 20, trial%2 == 0)
		src := graph.NodeID(rng.Intn(n))
		for _, base := range []graph.Weight{-1, 0, 1 << 31} { // -1: g as drawn
			h := g
			if base >= 0 {
				h = reweighed(wrng, g, base)
			}
			for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
				dist := Dijkstra(h, dir, src)
				want := bellmanFord(h, dir, []graph.NodeID{src}, []graph.Weight{0})
				for v := 0; v < n; v++ {
					if dist[v] != want[v] {
						t.Fatalf("trial %d base %d dir %v: dist[%d] = %d, want %d", trial, base, dir, v, dist[v], want[v])
					}
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
		dist := DijkstraOffsets(g, graph.Forward, sources, offsets)
		want := bellmanFord(g, graph.Forward, sources, offsets)
		for v := 0; v < n; v++ {
			if dist[v] != want[v] {
				t.Fatalf("trial %d: dist[%d] = %d, want %d", trial, v, dist[v], want[v])
			}
		}
	}
}

// On a strongly connected graph every node but the source has a parent:
// an in-edge (p, v) with dist[p] + w = dist[v], so a shortest-path tree
// can be read off the distances.
func TestDijkstraTreeParentsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testgraphs.RandomConnected(rng, 60, 120, 30)
	dist := Dijkstra(g, graph.Forward, 0)
	for v := graph.NodeID(1); int(v) < g.NumNodes(); v++ {
		parent := graph.NodeID(-1)
		for _, e := range g.In(v) {
			if dist[e.To]+e.W == dist[v] {
				parent = e.To
			}
		}
		if parent < 0 {
			t.Fatalf("connected graph: node %d at %d has no tight in-edge", v, dist[v])
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

// Property (testing/quick): Dijkstra's output is a relaxation fixpoint
// that a shortest-path tree can be read off — dist[src] = 0, every edge
// satisfies dist[v] ≤ dist[u] + w, and every other reached node has a
// tight in-edge (p, v) with dist[p] + w = dist[v], its tree parent.
func TestDijkstraFixpointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	check := func(nRaw uint8, degRaw, srcRaw uint16, undirected bool) bool {
		n := 1 + int(nRaw%40)
		g := testgraphs.Random(rng, n, 1+int(degRaw%4), 12, undirected)
		src := graph.NodeID(int(srcRaw) % n)
		dist := Dijkstra(g, graph.Forward, src)
		if dist[src] != 0 {
			return false
		}
		for u := graph.NodeID(0); int(u) < n; u++ {
			if dist[u] >= graph.Infinity {
				continue
			}
			for _, e := range g.Out(u) {
				if dist[e.To] > dist[u]+e.W {
					return false // relaxable edge remains
				}
			}
			if u == src {
				continue
			}
			tight := false
			for _, e := range g.In(u) {
				tight = tight || dist[e.To]+e.W == dist[u]
			}
			if !tight {
				return false // no parent edge explains dist[u]
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
