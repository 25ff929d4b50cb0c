package landmark

import (
	"math/rand"
	"reflect"
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

// TestFingerprintDistinguishes: indexes over one graph with different
// landmark sets must not share a fingerprint (the identity WAL replay and
// the router's fences check), and a rebuild with the same set must keep
// it, so a reloaded index keeps its identity.
func TestFingerprintDistinguishes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := testgraphs.RandomConnected(rng, 60, 180, 25)
	build := func(landmarks ...graph.NodeID) *Index {
		t.Helper()
		ix, err := BuildWithLandmarks(g, landmarks)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	a, b := build(0, 17, 42), build(0, 17, 43)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different landmark sets share a fingerprint")
	}
	if c := build(0, 17, 42); c.Fingerprint() != a.Fingerprint() {
		t.Fatal("rebuild with identical landmarks changed the fingerprint")
	}
}
