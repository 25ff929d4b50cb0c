package core

import (
	"kpj/internal/fault"
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

	// The two queues a tree grows on, each created on first use: the
	// monotone bucket queue for integer weights up to
	// pqueue.MaxBucketEdgeWeight, the decrease-key heap beyond.
	q  *pqueue.NodeQueue
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

// bucketed reports whether trees over g grow on the bucket queue.
func bucketed(g *graph.Graph) bool { return g.MaxEdgeWeight() <= pqueue.MaxBucketEdgeWeight }

// bucket returns the tree's monotone bucket queue, reset and ready. A
// build may use it when its keys never decrease: plain Dijkstra, or A*
// under a consistent heuristic (every growth heuristic of sptiTree is;
// TestGrowthHeuristicsConsistent pins it).
func (t *SPT) bucket() *pqueue.BucketQueue {
	if t.bq == nil {
		t.bq = pqueue.NewBucketQueue()
	} else {
		t.bq.Reset()
	}
	return t.bq
}

// heap returns the tree's decrease-key queue over the current id range,
// reset and ready.
func (t *SPT) heap() *pqueue.NodeQueue {
	if t.q == nil {
		t.q = pqueue.NewNodeQueue(len(t.dist))
	} else {
		t.q.Grow(len(t.dist))
		t.q.Reset()
	}
	return t.q
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

func (t *SPT) setDist(v graph.NodeID, d graph.Weight, p graph.NodeID) {
	t.dist[v] = d
	t.parent[v] = p
	t.reach[v] = t.epoch
}

func (t *SPT) setParent(v, p graph.NodeID) { t.parent[v] = p }

func (t *SPT) settle(v graph.NodeID) { t.done[v] = t.epoch }

// buildFullSPT runs a complete Dijkstra over the space from its root into
// the workspace's SPT scratch — DA-SPT's full tree ("the dominating cost
// of constructing the full SPT" the paper attributes to it). Integer road
// weights take the monotone bucket queue; the result is bit-identical
// whichever queue runs because equal-length ties keep the minimum-id
// parent (every optimal predecessor relaxes the edge exactly once when
// popped non-stale, so the running min is queue-order independent). When
// bound trips the build stops and variant.run returns the sticky error
// before the engine starts, so the incomplete tree is never trusted.
// settled counts the nodes the build settled.
func (ws *Workspace) buildFullSPT(sp *Space, st *Stats, bound *Bound) (t *SPT, settled int) {
	t = &ws.spt
	t.begin(sp.numSpaceNodes())
	t.setDist(sp.Root, 0, -1)
	if bucketed(sp.G) {
		q := t.bucket()
		q.Push(sp.Root, 0)
		for q.Len() > 0 {
			if ferr := fault.Hit(fault.SPTGrow); ferr != nil {
				bound.inject(ferr)
			}
			if bound.Step() != nil {
				break
			}
			v, d := q.Pop()
			if d > t.Dist(v) {
				continue // stale lazy-insertion duplicate
			}
			t.settle(v)
			settled++
			if st != nil {
				st.SPTNodes++
				st.NodesPopped++
			}
			sp.expand(v, func(to graph.NodeID, w graph.Weight) {
				nd := d + w
				if nd < t.Dist(to) {
					t.setDist(to, nd, v)
					q.Push(to, nd)
				} else if nd == t.Dist(to) && v < t.Parent(to) {
					t.setParent(to, v)
				}
			})
		}
		return t, settled
	}
	q := t.heap()
	q.PushOrDecrease(sp.Root, 0)
	for q.Len() > 0 {
		if ferr := fault.Hit(fault.SPTGrow); ferr != nil {
			bound.inject(ferr)
		}
		if bound.Step() != nil {
			break
		}
		vi, d := q.Pop()
		v := graph.NodeID(vi)
		t.settle(v)
		settled++
		if st != nil {
			st.SPTNodes++
			st.NodesPopped++
		}
		sp.expand(v, func(to graph.NodeID, w graph.Weight) {
			nd := d + w
			if nd < t.Dist(to) {
				t.setDist(to, nd, v)
				q.PushOrDecrease(to, nd)
			} else if nd == t.Dist(to) && v < t.Parent(to) {
				t.setParent(to, v)
			}
		})
	}
	return t, settled
}
