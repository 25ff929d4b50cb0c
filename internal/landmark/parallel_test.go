package landmark

import (
	"math/rand"
	"reflect"
	"testing"

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
// different landmark sets must not share a fingerprint (the identity WAL
// replay and the router's fences check).
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
	// reloaded index keeps its identity.
	c, err := BuildWithLandmarks(g, a.Landmarks())
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() != a.Fingerprint() {
		t.Fatal("rebuild with identical landmarks changed the fingerprint")
	}
}
