package landmark

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"kpj/internal/graph"
	"kpj/internal/testgraphs"
)

// TestBuildParallelDeterminism: the parallel build must produce exactly
// the same index — landmark choice and every distance table — at every
// worker count, because farthest-point selection is inherently sequential
// and only the independent Dijkstras are fanned out.
func TestBuildParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := testgraphs.RandomConnected(rng, 80, 240, 30)
	want, err := BuildParallel(g, 8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := BuildParallel(g, 8, 3, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.Landmarks(), want.Landmarks()) {
			t.Fatalf("workers=%d: landmarks %v, want %v", workers, got.Landmarks(), want.Landmarks())
		}
		if !reflect.DeepEqual(got.pages, want.pages) {
			t.Fatalf("workers=%d: distance tables differ from sequential build", workers)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("workers=%d: fingerprint %x, want %x", workers, got.Fingerprint(), want.Fingerprint())
		}
	}
}

// TestFingerprintDistinguishes: indexes over different graphs or with
// different landmark sets must not share a fingerprint (the cache's
// invalidation key).
func TestFingerprintDistinguishes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := testgraphs.RandomConnected(rng, 60, 180, 25)
	a, err := Build(g, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, 6, 9) // different seed → (very likely) different landmarks
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Landmarks(), b.Landmarks()) {
		t.Skip("seeds selected identical landmarks; nothing to distinguish")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different landmark sets share a fingerprint")
	}
	// Same graph + same landmarks (rebuilt) → same fingerprint, so a
	// reloaded index keeps its warm cache.
	c, err := BuildWithLandmarks(g, a.Landmarks())
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() != a.Fingerprint() {
		t.Fatal("rebuild with identical landmarks changed the fingerprint")
	}
}

// TestSetBoundsCacheCorrectness: cache answers must be the very tables the
// index computes, across both directions, with hits on repeats.
func TestSetBoundsCacheCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testgraphs.RandomConnected(rng, 70, 200, 25)
	ix, err := Build(g, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSetBoundsCache(4)
	targets := []graph.NodeID{3, 11, 40}
	sources := []graph.NodeID{7, 22}

	direct := ix.BoundsToSet(targets)
	for round := 0; round < 3; round++ {
		got := c.BoundsToSet(ix, targets)
		for v := 0; v < g.NumNodes(); v++ {
			if got.LowerBound(graph.NodeID(v)) != direct.LowerBound(graph.NodeID(v)) {
				t.Fatalf("round %d: cached to-set bound differs at node %d", round, v)
			}
		}
	}
	directFrom := ix.BoundsFromSet(sources)
	for round := 0; round < 3; round++ {
		got := c.BoundsFromSet(ix, sources)
		for v := 0; v < g.NumNodes(); v++ {
			if got.LowerBound(graph.NodeID(v)) != directFrom.LowerBound(graph.NodeID(v)) {
				t.Fatalf("round %d: cached from-set bound differs at node %d", round, v)
			}
		}
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 4 {
		t.Errorf("hits=%d misses=%d, want 4/2", st.Hits, st.Misses)
	}
	if st.Size != 2 {
		t.Errorf("size=%d, want 2", st.Size)
	}
}

// TestSetBoundsCacheLRU: the capacity is honored and the least recently
// used entry is the one evicted.
func TestSetBoundsCacheLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := testgraphs.RandomConnected(rng, 50, 150, 20)
	ix, err := Build(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSetBoundsCache(2)
	setA := []graph.NodeID{1, 2}
	setB := []graph.NodeID{3, 4}
	setC := []graph.NodeID{5, 6}
	c.BoundsToSet(ix, setA) // miss
	c.BoundsToSet(ix, setB) // miss
	c.BoundsToSet(ix, setA) // hit; A now most recent
	c.BoundsToSet(ix, setC) // miss; evicts B
	c.BoundsToSet(ix, setA) // hit
	c.BoundsToSet(ix, setB) // miss again (was evicted)
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 4 {
		t.Errorf("hits=%d misses=%d, want 2/4", st.Hits, st.Misses)
	}
	if st.Size != 2 {
		t.Errorf("size=%d, want capacity 2", st.Size)
	}
}

// TestSetBoundsCacheConcurrent hammers one cache from many goroutines
// (run with -race): all answers must match the direct computation.
func TestSetBoundsCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := testgraphs.RandomConnected(rng, 60, 180, 25)
	ix, err := Build(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]graph.NodeID{{1, 5, 9}, {2, 6, 10}, {3, 7, 11}, {4, 8, 12}}
	want := make([]*Bounds, len(sets))
	for i, s := range sets {
		want[i] = ix.BoundsToSet(s)
	}
	c := NewSetBoundsCache(2) // under-sized: eviction races with lookups
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				i := (w + r) % len(sets)
				got := c.BoundsToSet(ix, sets[i])
				for _, v := range []graph.NodeID{0, graph.NodeID(g.NumNodes() / 2)} {
					if got.LowerBound(v) != want[i].LowerBound(v) {
						t.Errorf("worker %d round %d: bound mismatch at %d", w, r, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
