package router

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Consistent hashing for cache affinity. Each replica owns `ringVnodes`
// points on a 64-bit ring; a query's affinity key — derived from the
// serving index fingerprint and the query's category set — is looked up
// by ring successor, so repeat queries for the same categories keep
// landing on the replica whose BoundsCache already holds their bound
// tables, and dropping a replica from -replicas only reassigns the keys
// it owned.

// ringVnodes is the virtual-node count per replica: enough that three
// replicas split the key space within a few percent of evenly, small
// enough that rebuilds stay trivial.
const ringVnodes = 64

type ringEntry struct {
	hash uint64
	idx  int // index into the router's replica slice
}

type ring struct {
	entries []ringEntry // sorted by hash
	n       int         // distinct replicas
}

// buildRing places ringVnodes points per name. Names must be distinct —
// they are the stable identity replicas keep across router restarts.
func buildRing(names []string) *ring {
	r := &ring{entries: make([]ringEntry, 0, len(names)*ringVnodes), n: len(names)}
	for i, name := range names {
		for v := 0; v < ringVnodes; v++ {
			r.entries = append(r.entries, ringEntry{hash: hashKey(name, fmt.Sprint(v)), idx: i})
		}
	}
	sort.Slice(r.entries, func(a, b int) bool { return r.entries[a].hash < r.entries[b].hash })
	return r
}

// sequence returns every replica index exactly once, ordered by ring
// walk from key's successor: element 0 is the affinity home, element 1
// the natural hedge/failover target, and so on. Deterministic for a
// given (ring, key).
func (r *ring) sequence(key uint64) []int {
	if r.n == 0 {
		return nil
	}
	start := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].hash >= key })
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i := 0; i < len(r.entries) && len(out) < r.n; i++ {
		e := r.entries[(start+i)%len(r.entries)]
		if !seen[e.idx] {
			seen[e.idx] = true
			out = append(out, e.idx)
		}
	}
	return out
}

// hashKey is FNV-1a over NUL-separated parts, passed through a
// splitmix64 finalizer. Raw FNV-1a output clusters for the short,
// near-identical strings vnodes are built from ("r0\x001", "r0\x002",
// ...), which skewed ring ownership as far as 70/30 on a two-replica
// ring; the finalizer's avalanche restores a near-even split.
func hashKey(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0})
	}
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// affinityKey hashes (index fingerprint, query category set) onto the
// ring. cats must already be sorted so {A,B} and {B,A} share a home;
// queries with no categories (explicit node ids) hash on the fingerprint
// alone, which still pins them to one replica's warm caches.
func affinityKey(fingerprint uint64, cats []string) uint64 {
	parts := make([]string, 0, len(cats)+1)
	parts = append(parts, fmt.Sprintf("%016x", fingerprint))
	parts = append(parts, cats...)
	return hashKey(parts...)
}
