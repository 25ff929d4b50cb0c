package landmark

import (
	"container/list"
	"sync"

	"kpj/internal/fault"
	"kpj/internal/graph"
)

// SetBoundsCache is a concurrency-safe LRU cache of the per-category
// set-bound tables (Bounds and FromBounds, the paper's Eq. 2 tables).
// Building one costs O(|L|·|V_T|) per query; a server answering thousands
// of queries against a handful of categories rebuilds the same handful of
// tables over and over. The cache is keyed by (index fingerprint,
// direction, node-set hash) and verifies the node set exactly on every
// hit, so a hash collision can never serve the wrong table — at worst it
// degrades to a rebuild.
//
// Keying by Index.Fingerprint rather than pointer identity means a
// process that reloads the same index from disk (or rebuilds it with the
// same landmarks) keeps its warm cache; an index built with different
// landmarks or over a different graph occupies distinct entries, which is
// the invalidation story: stale tables are never returned, they merely age
// out of the LRU.
//
// The zero value is not usable; create one with NewSetBoundsCache. All
// methods are safe for concurrent use.
type SetBoundsCache struct {
	mu        sync.Mutex
	cap       int
	entries   map[setBoundsKey]*list.Element
	lru       *list.List // front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

type setBoundsKey struct {
	fp   uint64
	kind uint8 // 0 = to-set (Bounds), 1 = from-set (FromBounds)
	hash uint64
}

type setBoundsEntry struct {
	key   setBoundsKey
	nodes []graph.NodeID // exact-match verification on hit
	val   any            // *Bounds or *FromBounds
}

// DefaultSetBoundsCacheSize is the capacity NewSetBoundsCache substitutes
// for a non-positive request: room for a few hundred distinct categories,
// a few MB at typical landmark counts.
const DefaultSetBoundsCacheSize = 128

// NewSetBoundsCache returns a cache holding at most capacity tables
// (both directions counted together). capacity <= 0 uses
// DefaultSetBoundsCacheSize.
func NewSetBoundsCache(capacity int) *SetBoundsCache {
	if capacity <= 0 {
		capacity = DefaultSetBoundsCacheSize
	}
	return &SetBoundsCache{
		cap:     capacity,
		entries: make(map[setBoundsKey]*list.Element, capacity),
		lru:     list.New(),
	}
}

// BoundsToSet returns the destination-set table for targets, computing and
// caching it on a miss. Equivalent to ix.BoundsToSet(targets); the node
// slice is compared element-wise, so callers should pass canonically
// ordered sets (the query layer dedupes and sorts) to hit reliably.
func (c *SetBoundsCache) BoundsToSet(ix *Index, targets []graph.NodeID) *Bounds {
	key := setBoundsKey{fp: ix.Fingerprint(), kind: 0, hash: hashNodes(targets)}
	if v, ok := c.lookup(key, targets); ok {
		return v.(*Bounds)
	}
	b := ix.BoundsToSet(targets)
	c.insert(key, targets, b)
	return b
}

// BoundsFromSet returns the source-set table for sources, computing and
// caching it on a miss. Equivalent to ix.BoundsFromSet(sources).
func (c *SetBoundsCache) BoundsFromSet(ix *Index, sources []graph.NodeID) *FromBounds {
	key := setBoundsKey{fp: ix.Fingerprint(), kind: 1, hash: hashNodes(sources)}
	if v, ok := c.lookup(key, sources); ok {
		return v.(*FromBounds)
	}
	b := ix.BoundsFromSet(sources)
	c.insert(key, sources, b)
	return b
}

// CacheStats is the full counter snapshot of a SetBoundsCache.
type CacheStats struct {
	Hits      int64 // lookups answered from the cache
	Misses    int64 // lookups that fell through to a table build
	Evictions int64 // cached tables displaced (LRU overflow or key collision)
	Size      int   // entries currently resident
	Cap       int   // configured capacity
}

// Stats reports every cumulative counter plus the current occupancy.
// Evictions are the signal that distinguishes "the working set fits" from
// "categories are thrashing each other out".
func (c *SetBoundsCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.lru.Len(),
		Cap:       c.cap,
	}
}

// lookup returns the cached table for key if the stored node set matches
// nodes exactly, promoting the entry to most recently used.
func (c *SetBoundsCache) lookup(key setBoundsKey, nodes []graph.NodeID) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if ok {
		e := el.Value.(*setBoundsEntry)
		if sameNodes(e.nodes, nodes) {
			c.lru.MoveToFront(el)
			c.hits++
			return e.val, true
		}
	}
	c.misses++
	return nil, false
}

// insert stores a freshly computed table, evicting the least recently used
// entry when full. Concurrent misses of the same key both compute and the
// later insert wins — wasted work, never a wrong result.
func (c *SetBoundsCache) insert(key setBoundsKey, nodes []graph.NodeID, val any) {
	// An injected cache fault degrades to a skipped insert — the caller
	// already holds the freshly built table, so correctness is unaffected;
	// only reuse is lost. This is the graceful-degradation contract: the
	// cache is an accelerator, never a correctness dependency.
	if ferr := fault.Hit(fault.CacheInsert); ferr != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &setBoundsEntry{key: key, nodes: append([]graph.NodeID(nil), nodes...), val: val}
	if el, ok := c.entries[key]; ok {
		// Replacing the resident entry for this key is two distinct events
		// and must be accounted as such: concurrent misses of the SAME node
		// set racing their inserts merely have the later table win — no
		// cached state is lost, so it is not an eviction. A key collision
		// (same hash, different node set) displaces a live table and counts
		// as exactly one eviction. Folding both into the eviction counter
		// would double-count the benign racing-insert case and make a
		// healthy cache look like it thrashes under concurrent load.
		if !sameNodes(el.Value.(*setBoundsEntry).nodes, e.nodes) {
			c.evictions++
		}
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(e)
	for c.lru.Len() > c.cap {
		old := c.lru.Back()
		c.lru.Remove(old)
		delete(c.entries, old.Value.(*setBoundsEntry).key)
		c.evictions++
	}
}

// Rekey migrates the cached tables of one index generation to its
// successor after a live update: every entry keyed by oldFP whose node
// set the update left clean (drop returns false) is re-keyed to the new
// index's fingerprint — its aggregate table is still exact, because
// set-bound aggregates are a pure function of the landmark rows at the
// set's nodes and those rows did not change — while entries drop reports
// dirty are removed. This is the fingerprint-scoped invalidation story
// for deltas: only the categories an update actually touched pay a
// rebuild; the rest of the LRU survives the epoch bump warm.
//
// Migrated entries are rebound to newIx (a fresh Bounds/FromBounds
// sharing the aggregate slices), never mutated in place: in-flight
// queries on the old epoch keep using the old binding, and per-query
// node lookups through the migrated entry read the repaired rows — the
// aggregates alone being clean is not enough, since LowerBound also
// consults the index at the query node.
//
// Each dropped entry counts as exactly one eviction (it displaced live
// cached state), as does a clean entry that loses the migration race
// because the new fingerprint already holds an entry under the same key
// (a concurrent rebuild got there first). Migrated entries keep their
// LRU position. Rekey returns (migrated, dropped) where dropped includes
// collision losers.
//
// A POI-only delta leaves the fingerprint unchanged (it hashes topology
// and weights, not categories); Rekey then degenerates to a drop-only
// sweep — clean entries are already correctly keyed and stay put
// uncounted, while the changed category's now-orphaned table is still
// evicted rather than left to squat in the LRU.
func (c *SetBoundsCache) Rekey(oldFP uint64, newIx *Index, drop func(nodes []graph.NodeID) bool) (migrated, dropped int) {
	newFP := newIx.Fingerprint()
	c.mu.Lock()
	defer c.mu.Unlock()
	var stale []*list.Element
	// Sweep order does not matter: each stale entry is dropped or
	// migrated independently, and two old keys can never collide on the
	// same new key (only the fingerprint changes) —
	// TestCacheRekeyScopedInvalidation.
	for key, el := range c.entries {
		if key.fp == oldFP {
			stale = append(stale, el)
		}
	}
	for _, el := range stale {
		e := el.Value.(*setBoundsEntry)
		oldKey := e.key
		if drop != nil && drop(e.nodes) {
			c.lru.Remove(el)
			delete(c.entries, oldKey)
			c.evictions++
			dropped++
			continue
		}
		if oldFP == newFP {
			continue // already correctly keyed; nothing to migrate
		}
		newKey := setBoundsKey{fp: newFP, kind: oldKey.kind, hash: oldKey.hash}
		if _, occupied := c.entries[newKey]; occupied {
			c.lru.Remove(el)
			delete(c.entries, oldKey)
			c.evictions++
			dropped++
			continue
		}
		delete(c.entries, oldKey)
		e.key = newKey
		e.val = rebind(e.val, newIx)
		c.entries[newKey] = el
		migrated++
	}
	return migrated, dropped
}

// rebind clones a cached table onto a new index, sharing the aggregate
// slices (which are immutable once built).
func rebind(val any, ix *Index) any {
	switch b := val.(type) {
	case *Bounds:
		return &Bounds{ix: ix, minFwd: b.minFwd, maxBwd: b.maxBwd}
	case *FromBounds:
		return &FromBounds{ix: ix, maxFwd: b.maxFwd, minBwd: b.minBwd}
	}
	return val
}

func sameNodes(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hashNodes is FNV-1a over the node-id sequence.
func hashNodes(nodes []graph.NodeID) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, v := range nodes {
		x := uint64(uint32(v))
		for i := 0; i < 4; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	return h
}
