package landmark

import (
	"testing"

	"kpj/internal/graph"
)

// twoComponents builds two disjoint 4-node directed cycles: nodes 0..3
// (component A) and 4..7 (component B). A weight change inside one
// component can never dirty the other's landmark entries.
func twoComponents(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(8)
	for _, base := range []graph.NodeID{0, 4} {
		for i := graph.NodeID(0); i < 4; i++ {
			b.AddEdge(base+i, base+(i+1)%4, 2)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCacheRekeyScopedInvalidation is the fingerprint-scoped invalidation
// contract: after a delta touching only component A, Rekey drops A's
// cached tables (exact eviction accounting) while B's survive under the
// new fingerprint, still serving hits — and serving answers identical to
// a fresh build against the repaired index.
func TestCacheRekeyScopedInvalidation(t *testing.T) {
	g := twoComponents(t)
	old, err := BuildWithLandmarks(g, []graph.NodeID{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	c := NewSetBoundsCache(8)
	catA := []graph.NodeID{1, 3}
	catB := []graph.NodeID{5, 7}
	bA := c.BoundsToSet(old, catA)
	bB := c.BoundsToSet(old, catB)
	fB := c.BoundsFromSet(old, catB)
	if s := c.Stats(); s.Size != 3 || s.Misses != 3 {
		t.Fatalf("warmup stats: %+v", s)
	}

	// Shorten an edge inside component A only.
	ng, eff, err := graph.Apply(g, &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: 0, V: 1, W: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	repaired, dirty, _, err := Repair(ng, old, eff.Changes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if old.Fingerprint() == repaired.Fingerprint() {
		t.Fatal("weight change did not move the fingerprint; rekey untestable")
	}
	for v := 4; v < 8; v++ {
		if dirty[v] {
			t.Fatalf("component-B node %d dirty after component-A change", v)
		}
	}

	before := c.Stats()
	anyDirty := func(nodes []graph.NodeID) bool {
		for _, v := range nodes {
			if dirty[v] {
				return true
			}
		}
		return false
	}
	migrated, droppedN := c.Rekey(old.Fingerprint(), repaired, anyDirty)
	if migrated != 2 || droppedN != 1 {
		t.Fatalf("migrated %d dropped %d, want 2/1", migrated, droppedN)
	}
	after := c.Stats()
	if after.Evictions != before.Evictions+1 {
		t.Fatalf("evictions %d -> %d, want exactly one more", before.Evictions, after.Evictions)
	}
	if after.Size != 2 {
		t.Fatalf("size %d after rekey, want 2", after.Size)
	}

	// Component B lookups hit the migrated entries under the new index.
	h0 := after.Hits
	gotB := c.BoundsToSet(repaired, catB)
	gotFB := c.BoundsFromSet(repaired, catB)
	if s := c.Stats(); s.Hits != h0+2 {
		t.Fatalf("migrated entries did not hit: hits %d -> %d", h0, s.Hits)
	}
	// The migrated tables must be rebound to the repaired index (not the
	// old one) and agree with a from-scratch build at every node.
	if gotB == bB || gotFB == fB {
		t.Fatal("rekey returned the old binding instead of a rebound clone")
	}
	freshB := repaired.BoundsToSet(catB)
	freshFB := repaired.BoundsFromSet(catB)
	for v := graph.NodeID(0); v < 8; v++ {
		if gotB.LowerBound(v) != freshB.LowerBound(v) {
			t.Fatalf("migrated Bounds diverges at node %d", v)
		}
		if gotFB.LowerBound(v) != freshFB.LowerBound(v) {
			t.Fatalf("migrated FromBounds diverges at node %d", v)
		}
	}

	// Component A was dropped: next lookup misses and rebuilds.
	m0 := c.Stats().Misses
	gotA := c.BoundsToSet(repaired, catA)
	if s := c.Stats(); s.Misses != m0+1 {
		t.Fatal("dropped entry still resident")
	}
	freshA := repaired.BoundsToSet(catA)
	for v := graph.NodeID(0); v < 8; v++ {
		if gotA.LowerBound(v) != freshA.LowerBound(v) {
			t.Fatalf("rebuilt Bounds diverges at node %d", v)
		}
	}
	// The old entry object is untouched — in-flight queries on the old
	// epoch keep a consistent view.
	if bA.ix != old {
		t.Fatal("old-epoch Bounds was mutated by Rekey")
	}
}

// TestCacheRekeySameFingerprintDropOnly pins the POI-only-delta case: a
// rekey between identical fingerprints migrates nothing (entries are
// already correctly keyed) but still sweeps out the entries the drop
// predicate flags.
func TestCacheRekeySameFingerprintDropOnly(t *testing.T) {
	g := twoComponents(t)
	ix, err := BuildWithLandmarks(g, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	c := NewSetBoundsCache(4)
	keep := []graph.NodeID{1}
	toss := []graph.NodeID{2, 3}
	c.BoundsToSet(ix, keep)
	c.BoundsToSet(ix, toss)
	m, d := c.Rekey(ix.Fingerprint(), ix, func(nodes []graph.NodeID) bool {
		return len(nodes) == 2
	})
	if m != 0 || d != 1 {
		t.Fatalf("same-fingerprint rekey: migrated %d dropped %d, want 0/1", m, d)
	}
	if s := c.Stats(); s.Size != 1 || s.Evictions != 1 {
		t.Fatalf("stats after drop-only sweep: %+v", s)
	}
	h0 := c.Stats().Hits
	c.BoundsToSet(ix, keep)
	if c.Stats().Hits != h0+1 {
		t.Fatal("surviving entry stopped hitting")
	}
}

// TestCacheRekeyCollisionLoserEvicted covers the migration race: if the
// new fingerprint already holds an entry under the same key (a concurrent
// rebuild populated it), the stale clean entry is dropped, not migrated
// over it.
func TestCacheRekeyCollisionLoserEvicted(t *testing.T) {
	g := twoComponents(t)
	old, err := BuildWithLandmarks(g, []graph.NodeID{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	ng, eff, err := graph.Apply(g, &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: 4, V: 5, W: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	repaired, _, _, err := Repair(ng, old, eff.Changes, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSetBoundsCache(8)
	cat := []graph.NodeID{1, 3} // component A: clean under this delta
	c.BoundsToSet(old, cat)
	winner := c.BoundsToSet(repaired, cat) // new-generation entry already present
	before := c.Stats()
	m, d := c.Rekey(old.Fingerprint(), repaired, nil)
	if m != 0 || d != 1 {
		t.Fatalf("migrated %d dropped %d, want 0/1", m, d)
	}
	if s := c.Stats(); s.Evictions != before.Evictions+1 || s.Size != 1 {
		t.Fatalf("stats after collision rekey: %+v", s)
	}
	if got := c.BoundsToSet(repaired, cat); got != winner {
		t.Fatal("collision winner displaced by stale entry")
	}
}
