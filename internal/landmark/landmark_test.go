package landmark

import (
	"errors"
	"math/rand"
	"testing"

	"kpj/internal/graph"
	"kpj/internal/sssp"
	"kpj/internal/testgraphs"
)

func buildIndex(t *testing.T, g *graph.Graph, count int, seed int64) *Index {
	t.Helper()
	ix, err := Build(g, count, seed)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix
}

func TestBuildErrors(t *testing.T) {
	empty, err := graph.NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(empty, 4, 1); err == nil {
		t.Fatal("want error for empty graph")
	}
	g, err := graph.NewBuilder(3).AddEdge(0, 1, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, 0, 1); err == nil {
		t.Fatal("want error for zero landmarks")
	}
	if _, err := BuildWithLandmarks(g, nil); err == nil {
		t.Fatal("want error for empty landmark list")
	}
	if _, err := BuildWithLandmarks(g, []graph.NodeID{7}); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("out-of-range landmark: err = %v, want ErrNodeRange", err)
	}
}

func TestCountClamped(t *testing.T) {
	g, err := graph.NewBuilder(3).AddBiEdge(0, 1, 1).AddBiEdge(1, 2, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIndex(t, g, 10, 1)
	if ix.Count() > 3 {
		t.Fatalf("Count = %d, want <= 3", ix.Count())
	}
	if len(ix.Landmarks()) != ix.Count() {
		t.Fatal("Landmarks length mismatch")
	}
	if ix.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

// TestSelectionDeterministic: an index is a pure function of (graph,
// count, seed) for both selection strategies — seed 0 included, so a
// "0 means pick one from the clock" default or a draw from the global
// math/rand source fails here.
func TestSelectionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testgraphs.RandomConnected(rng, 50, 100, 20)
	for _, b := range []struct {
		name  string
		build func(*graph.Graph, int, int64) (*Index, error)
	}{{"Build", Build}, {"BuildRandom", BuildRandom}} {
		for _, seed := range []int64{0, 42} {
			var ix [2]*Index
			for i := range ix {
				var err error
				if ix[i], err = b.build(g, 6, seed); err != nil {
					t.Fatalf("%s seed %d: %v", b.name, seed, err)
				}
			}
			if ix[0].Fingerprint() != ix[1].Fingerprint() || ix[0].TablesChecksum() != ix[1].TablesChecksum() {
				t.Errorf("%s seed %d: two builds differ: landmarks %v vs %v", b.name, seed, ix[0].Landmarks(), ix[1].Landmarks())
			}
		}
	}
}

// Admissibility: lb(u,v) <= δ(u,v) for every pair, and lb == Infinity only
// when v is truly unreachable from u. Exercised on connected, disconnected,
// directed and undirected random graphs.
func TestPairLowerBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = testgraphs.RandomConnected(rng, n, n, 20)
		case 1:
			g = testgraphs.Random(rng, n, 2, 20, false) // likely disconnected
		default:
			g = testgraphs.Random(rng, n, 2, 20, true)
		}
		ix := buildIndex(t, g, 1+rng.Intn(5), int64(trial))
		for u := graph.NodeID(0); int(u) < n; u++ {
			exact := sssp.Dijkstra(g, graph.Forward, u)
			for v := graph.NodeID(0); int(v) < n; v++ {
				lb := ix.LowerBound(u, v)
				if lb > exact[v] {
					t.Fatalf("trial %d: lb(%d,%d) = %d > δ = %d", trial, u, v, lb, exact[v])
				}
				if lb >= graph.Infinity && exact[v] < graph.Infinity {
					t.Fatalf("trial %d: lb(%d,%d) = Inf but δ = %d", trial, u, v, exact[v])
				}
			}
		}
	}
}

// Consistency: the ALT heuristic must satisfy h(u) <= ω(u,x) + h(x) for
// every edge (u,x), which A* with early termination relies on.
func TestPairLowerBoundConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(25)
		g := testgraphs.Random(rng, n, 3, 15, trial%2 == 0)
		ix := buildIndex(t, g, 1+rng.Intn(4), int64(trial))
		for target := graph.NodeID(0); int(target) < n; target += 3 {
			for u := graph.NodeID(0); int(u) < n; u++ {
				hu := ix.LowerBound(u, target)
				for _, e := range g.Out(u) {
					hx := ix.LowerBound(e.To, target)
					if hx >= graph.Infinity {
						continue // u may still reach target another way
					}
					if hu < graph.Infinity && hu > e.W+hx {
						t.Fatalf("trial %d: inconsistent: h(%d)=%d > %d + h(%d)=%d (target %d)",
							trial, u, hu, e.W, e.To, hx, target)
					}
				}
			}
		}
	}
}

// Eq. 2 bound: lb(u, V_T) <= min_{v∈V_T} δ(u,v), Infinity only if no target
// is reachable.
func TestBoundsToSetAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		var g *graph.Graph
		if trial%2 == 0 {
			g = testgraphs.RandomConnected(rng, n, n, 20)
		} else {
			g = testgraphs.Random(rng, n, 2, 20, false)
		}
		ix := buildIndex(t, g, 1+rng.Intn(5), int64(trial))
		size := 1 + rng.Intn(n)
		targets := testgraphs.RandomCategory(rng, g, "T", size)
		bounds := ix.BoundsToSet(targets)
		exactToSet := sssp.DistancesToSet(g, targets)
		for u := graph.NodeID(0); int(u) < n; u++ {
			lb := bounds.LowerBound(u)
			if lb > exactToSet[u] {
				t.Fatalf("trial %d: lb(%d,T) = %d > δ = %d (|T|=%d)", trial, u, lb, exactToSet[u], size)
			}
			if lb >= graph.Infinity && exactToSet[u] < graph.Infinity {
				t.Fatalf("trial %d: lb(%d,T) = Inf but δ = %d", trial, u, exactToSet[u])
			}
		}
	}
}

func TestBoundsToSetPanicsOnEmpty(t *testing.T) {
	g := testgraphs.Fig1()
	ix := buildIndex(t, g, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for empty target set")
		}
	}()
	ix.BoundsToSet(nil)
}

func TestLowerBoundSelf(t *testing.T) {
	g := testgraphs.Fig1()
	ix := buildIndex(t, g, 4, 1)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if lb := ix.LowerBound(v, v); lb != 0 {
			t.Fatalf("lb(%d,%d) = %d, want 0", v, v, lb)
		}
	}
}

// On the Fig. 1 fixture the bound for the hotel category must never exceed
// the known exact distances and must be exact at the hotels themselves.
func TestFig1CategoryBound(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, err := g.Category(testgraphs.HotelCategory)
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIndex(t, g, 8, 3)
	bounds := ix.BoundsToSet(hotels)
	if lb := bounds.LowerBound(testgraphs.V1); lb > 5 {
		t.Fatalf("lb(v1,H) = %d > 5", lb)
	}
	for _, h := range hotels {
		if lb := bounds.LowerBound(h); lb != 0 {
			t.Fatalf("lb(hotel %d) = %d, want 0", h, lb)
		}
	}
}

// More landmarks can only tighten (or keep) the single-landmark bound when
// the landmark sets are nested.
func TestMoreLandmarksTighter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := testgraphs.RandomConnected(rng, 40, 80, 20)
	small, err := BuildWithLandmarks(g, []graph.NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := BuildWithLandmarks(g, []graph.NodeID{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.NodeID(0); u < 40; u += 2 {
		for v := graph.NodeID(1); v < 40; v += 3 {
			if big.LowerBound(u, v) < small.LowerBound(u, v) {
				t.Fatalf("nested landmark set loosened bound at (%d,%d)", u, v)
			}
		}
	}
}

// Unreachable propagation: in a two-component graph the bound must report
// Infinity across components (landmark permitting) and never block within.
func TestDisconnectedComponents(t *testing.T) {
	// Component A: 0-1, component B: 2-3 (bidirectional).
	g, err := graph.NewBuilder(4).AddBiEdge(0, 1, 5).AddBiEdge(2, 3, 7).Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildWithLandmarks(g, []graph.NodeID{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if lb := ix.LowerBound(0, 2); lb < graph.Infinity {
		t.Fatalf("lb(0,2) = %d, want Infinity", lb)
	}
	if lb := ix.LowerBound(0, 1); lb > 5 {
		t.Fatalf("lb(0,1) = %d > 5", lb)
	}
	if err := g.AddCategory("B", []graph.NodeID{2, 3}); err != nil {
		t.Fatal(err)
	}
	targets, _ := g.Category("B")
	bounds := ix.BoundsToSet(targets)
	if lb := bounds.LowerBound(0); lb < graph.Infinity {
		t.Fatalf("lb(0,B) = %d, want Infinity", lb)
	}
	if lb := bounds.LowerBound(3); lb > 0 {
		t.Fatalf("lb(3,B) = %d, want 0", lb)
	}
}
