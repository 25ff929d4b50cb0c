package kpj_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"kpj"
)

// TestBoundsCache: cached queries return identical results and repeat
// queries against the same category hit instead of recomputing.
func TestBoundsCache(t *testing.T) {
	g := randomDigraph(t, 120, 500, 3)
	ix, err := kpj.BuildIndex(g, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	targets := []kpj.NodeID{5, 17, 44, 90}
	sources := []kpj.NodeID{2}
	want, err := g.TopKJoinSets(sources, targets, 25, &kpj.Options{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	cache := kpj.NewBoundsCache(8)
	for i := 0; i < 3; i++ {
		got, err := g.TopKJoinSets(sources, targets, 25,
			&kpj.Options{Index: ix, BoundsCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: cached result differs from uncached", i)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("no cache hits after repeated queries (misses=%d size=%d)", st.Misses, st.Size)
	}
}

// TestBoundsCacheConcurrent hammers one cache from many goroutines
// running concurrent queries against overlapping categories — the shape a
// server under load produces. Run with -race; every result must match
// the uncached sequential answer.
func TestBoundsCacheConcurrent(t *testing.T) {
	g := randomDigraph(t, 100, 400, 11)
	ix, err := kpj.BuildIndex(g, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	cats := [][]kpj.NodeID{
		{3, 9, 27, 81},
		{5, 25, 50, 75},
		{8, 16, 32, 64},
	}
	want := make([][]kpj.Path, len(cats))
	for i, targets := range cats {
		if want[i], err = g.TopKJoinSets([]kpj.NodeID{1}, targets, 15, &kpj.Options{Index: ix}); err != nil {
			t.Fatal(err)
		}
	}
	cache := kpj.NewBoundsCache(2) // smaller than the working set: forces eviction churn
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				i := (w + r) % len(cats)
				got, err := g.TopKJoinSets([]kpj.NodeID{1}, cats[i], 15,
					&kpj.Options{Index: ix, BoundsCache: cache})
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("worker %d round %d: cached result differs", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
