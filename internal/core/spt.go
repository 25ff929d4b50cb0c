package core

import (
	"kpj/internal/graph"
	"kpj/internal/pqueue"
)

// SPT is reusable shortest-path-tree scratch shared by the partial tree of
// Section 5.2, the incremental tree of Section 5.3, and DA-SPT's full
// tree. All per-node state (distance, parent, growth heuristic,
// settledness) is epoch-stamped so a workspace-owned SPT restarts in O(1)
// per query instead of paying an O(n) re-initialization — one of the two
// dominant per-query costs the flat-layout work removes (the other being
// the goal-membership sets of Space).
type SPT struct {
	dist   []graph.Weight
	parent []graph.NodeID
	h      []graph.Weight // sptiTree's growth heuristic, computed once per reached node
	reach  []uint32       // dist/parent/h valid iff reach[v] == epoch
	done   []uint32       // settled iff done[v] == epoch
	epoch  uint32

	// The monotone bucket queue every tree grows on, created on first use.
	bq *pqueue.BucketQueue
}

// begin starts a fresh tree over space-node ids [0, n): all nodes read as
// unreached/unsettled and the queue is empty.
func (t *SPT) begin(n int) {
	if len(t.dist) < n {
		t.dist = make([]graph.Weight, n)
		t.parent = make([]graph.NodeID, n)
		t.h = make([]graph.Weight, n)
		t.reach = make([]uint32, n)
		t.done = make([]uint32, n)
		t.epoch = 0
	}
	t.epoch++
	if t.epoch == 0 { // stamp wrap: pay one O(n) clear every 2^32 queries
		for i := range t.reach {
			t.reach[i] = 0
			t.done[i] = 0
		}
		t.epoch = 1
	}
}

// bucket returns the tree's monotone bucket queue, reset and ready. Growth
// keys never decrease: every growth heuristic of sptiTree is consistent
// (TestGrowthHeuristicsConsistent pins it), and DA-SPT's full tree grows
// under none.
func (t *SPT) bucket() *pqueue.BucketQueue {
	if t.bq == nil {
		t.bq = pqueue.NewBucketQueue()
	} else {
		t.bq.Reset()
	}
	return t.bq
}

// Dist returns the tentative (exact once settled) distance of v from the
// tree root, graph.Infinity when unreached.
func (t *SPT) Dist(v graph.NodeID) graph.Weight {
	if t.reach[v] != t.epoch {
		return graph.Infinity
	}
	return t.dist[v]
}

// Parent returns v's predecessor toward the root, -1 for the root and
// unreached nodes. For trees built over a reverse space the root is the
// virtual target, so Parent is the successor toward the target.
func (t *SPT) Parent(v graph.NodeID) graph.NodeID {
	if t.reach[v] != t.epoch {
		return -1
	}
	return t.parent[v]
}

// Settled reports whether v's distance is final.
func (t *SPT) Settled(v graph.NodeID) bool { return t.done[v] == t.epoch }

func (t *SPT) settle(v graph.NodeID) { t.done[v] = t.epoch }
