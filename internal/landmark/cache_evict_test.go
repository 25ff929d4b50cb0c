package landmark

import (
	"math/rand"
	"sync"
	"testing"

	"kpj/internal/graph"
	"kpj/internal/testgraphs"
)

// TestCacheEvictionAccounting: the eviction counter must count exactly the
// tables displaced by LRU overflow, not the benign insert races of
// concurrent misses for the same node set. Regression test for the
// double-count: folding "replace same-key entry" unconditionally into the
// eviction counter inflates it once per racing insert, making a perfectly
// sized cache look like it thrashes.
func TestCacheEvictionAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testgraphs.RandomConnected(rng, 60, 180, 25)
	ix, err := Build(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("sequential", func(t *testing.T) {
		c := NewSetBoundsCache(2)
		sets := [][]graph.NodeID{{1, 2}, {3, 4}, {5, 6}}
		for _, s := range sets {
			c.BoundsToSet(ix, s) // third insert evicts the first
		}
		st := c.Stats()
		if st.Evictions != 1 {
			t.Fatalf("evictions = %d after one LRU overflow, want 1", st.Evictions)
		}
		if st.Size != 2 || st.Misses != 3 || st.Hits != 0 {
			t.Fatalf("stats = %+v", st)
		}
		// Re-reading the survivors is pure hits, no eviction movement.
		c.BoundsToSet(ix, sets[1])
		c.BoundsToSet(ix, sets[2])
		if st := c.Stats(); st.Evictions != 1 || st.Hits != 2 {
			t.Fatalf("stats after hits = %+v", st)
		}
	})

	t.Run("concurrent-same-set", func(t *testing.T) {
		// Many goroutines miss the same (fingerprint, node set) at once:
		// all compute, their inserts race, the later ones replace the
		// earlier identical entry. No cached state is lost, so the
		// eviction counter must not move at all.
		c := NewSetBoundsCache(8)
		set := []graph.NodeID{7, 8, 9}
		var wg sync.WaitGroup
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if b := c.BoundsToSet(ix, set); b == nil {
						t.Error("nil table")
						return
					}
				}
			}()
		}
		wg.Wait()
		st := c.Stats()
		if st.Evictions != 0 {
			t.Fatalf("evictions = %d from same-set insert races, want 0", st.Evictions)
		}
		if st.Size != 1 {
			t.Fatalf("size = %d for a single distinct set", st.Size)
		}
		if st.Hits+st.Misses != 16*20 {
			t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, 16*20)
		}
	})

	t.Run("both-directions-count", func(t *testing.T) {
		// To-set and from-set tables share the capacity; overflow across
		// the mix still counts each displaced table once.
		c := NewSetBoundsCache(2)
		c.BoundsToSet(ix, []graph.NodeID{1})
		c.BoundsFromSet(ix, []graph.NodeID{1})
		c.BoundsToSet(ix, []graph.NodeID{2}) // evicts the oldest
		c.BoundsFromSet(ix, []graph.NodeID{2})
		if st := c.Stats(); st.Evictions != 2 || st.Size != 2 {
			t.Fatalf("stats = %+v, want 2 evictions at size 2", st)
		}
	})
}
