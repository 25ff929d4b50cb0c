package kpj_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"kpj"
)

// randomDigraph builds a connected-ish random sparse directed graph: a
// random cycle backbone (so everything is reachable) plus extra random
// arcs, with varied weights that create plenty of near-tied paths.
func randomDigraph(t testing.TB, n, extra int, seed int64) *kpj.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := kpj.NewBuilder(n)
	perm := rng.Perm(n)
	for i := range perm {
		u, v := kpj.NodeID(perm[i]), kpj.NodeID(perm[(i+1)%n])
		b.AddEdge(u, v, kpj.Weight(1+rng.Int63n(20)))
	}
	for i := 0; i < extra; i++ {
		u, v := kpj.NodeID(rng.Intn(n)), kpj.NodeID(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v, kpj.Weight(1+rng.Int63n(20)))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// withProcs runs fn with runtime.GOMAXPROCS set to procs, which bounds
// the index build's workers, and restores the old value.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestDeterminism: results are a pure function of (graph, query, seed).
// On four random graphs, seed 0 included, the public index build gives
// the same index twice and at GOMAXPROCS 1 and 4, and every algorithm row,
// with and without the index, answers the same query twice
// byte-identically — same paths, same order, including ties.
func TestDeterminism(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 42} {
		g := randomDigraph(t, 150, 600, seed)
		ix, err := kpj.BuildIndex(g, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Seed 0 is a seed, not "pick one".
		if again, err := kpj.BuildIndex(g, 6, seed); err != nil || again.Fingerprint() != ix.Fingerprint() {
			t.Fatalf("seed %d: a second build differs from the first (err %v)", seed, err)
		}
		for _, procs := range []int{1, 4} {
			var at *kpj.Index
			withProcs(procs, func() { at, err = kpj.BuildIndex(g, 6, seed) })
			if err != nil || at.Fingerprint() != ix.Fingerprint() {
				t.Fatalf("seed %d: a build at GOMAXPROCS %d differs from the default (err %v)", seed, procs, err)
			}
		}
		rng := rand.New(rand.NewSource(seed + 1000))
		sources := []kpj.NodeID{kpj.NodeID(rng.Intn(g.NumNodes()))}
		targets := make([]kpj.NodeID, 0, 8)
		for len(targets) < 8 {
			targets = append(targets, kpj.NodeID(rng.Intn(g.NumNodes())))
		}
		for _, alg := range allAlgorithms {
			for _, index := range []*kpj.Index{ix, nil} {
				opt := kpj.Options{Algorithm: alg, Index: index}
				want, err := g.TopKJoinSets(sources, targets, 40, &opt)
				if err != nil {
					t.Fatalf("seed %d %v index=%v: %v", seed, alg, index != nil, err)
				}
				got, err := g.TopKJoinSets(sources, targets, 40, &opt)
				if err != nil {
					t.Fatalf("seed %d %v index=%v: second run: %v", seed, alg, index != nil, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %v index=%v: second run differs from the first\n got %v\nwant %v",
						seed, alg, index != nil, got, want)
				}
			}
		}
	}
}
