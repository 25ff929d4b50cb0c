package core

import (
	"math"

	"kpj/internal/graph"
	"kpj/internal/pqueue"
)

// sptiTree is the paused A* behind both shortest path trees of Section 5:
// it searches one side of G_Q from its root toward its goal, keyed by
// distance plus the lower bound h toward the goal. Phase one (initSPTI +
// initialPath) settles nodes until the goal and its key-ties are settled —
// the by-product is the first shortest path.
//
//   - SPT_P (Alg. 6) is phase one on the REVERSE space: every settled node
//     carries its exact remaining distance δ(v, V_T) (Prop. 5.1), which the
//     forward-space searches then use as a heuristic.
//   - SPT_I (Alg. 7) is phase one on the FORWARD space, after which
//     growTo(τ) resumes the search until every node with
//     ds(v) + lb(v, V_T) ≤ τ is settled; by Prop. 5.2 that covers every
//     node on any source→V_T path of length ≤ τ, and the reverse-space
//     TestLB prunes everything not settled here (Allow).
//
// DA-SPT's full tree is the same search with no heuristic, grown to
// exhaustion (variant.run).
//
// Every growth heuristic is consistent (TestGrowthHeuristicsConsistent),
// so popped keys never decrease: the tree grows on the monotone bucket
// queue, pushing lazily on every improvement and skipping the stale
// duplicates of settled nodes. The queue pops equal keys in no specified
// order, so every phase ends on a key bound it settles all of (see
// initialPath): the settled set and its distances then do not depend on
// that order (TestGrowthQueueIndependent). A node is re-parented only on
// a strict improvement, so parents follow settle order and every parent
// walk ends at the root, zero-weight cycles included.
//
// The tree state lives in the workspace's shared SPT scratch; only this
// thin driver is per-query.
type sptiTree struct {
	sp *Space
	h  Heuristic // growth key heuristic toward sp's goal (or zero)
	t  *shortestPathTree
	ws *Workspace
	bq *pqueue.BucketQueue
	// open counts reached but unsettled nodes. The bucket queue's length
	// also counts stale duplicates, so exhaustion is read from here.
	open int
	// nsettled counts settled nodes for the spt_build span payload.
	nsettled int
	st       *Stats
	bound    *queryBound
}

// initSPTI seeds the workspace-cached tree over sp for a new query; h nil
// grows a plain Dijkstra tree. Like every node, the root joins the tree
// only under a finite bound: an infinite one proves it reaches no goal,
// and its neighbours' finite bounds (a far32 entry drops a term) would
// key below it.
func (ws *Workspace) initSPTI(sp *Space, h Heuristic, st *Stats, bound *queryBound) *sptiTree {
	t := &ws.spti
	*t = sptiTree{sp: sp, h: h, t: &ws.spt, ws: ws, st: st, bound: bound}
	t.t.begin(sp.numSpaceNodes())
	t.bq = t.t.bucket()
	if hv := hOrZero(h, sp.Root); hv < graph.Infinity {
		t.improve(sp.Root, 0, hv, -1)
	}
	return t
}

// improve records an improved distance d to v, whose growth heuristic is
// hv, and queues v at key d + hv.
func (t *sptiTree) improve(v graph.NodeID, d, hv graph.Weight, parent graph.NodeID) {
	tr := t.t
	if tr.reach[v] != tr.epoch {
		t.open++
	}
	tr.dist[v], tr.h[v], tr.parent[v], tr.reach[v] = d, hv, parent, tr.epoch
	t.bq.Push(v, d+hv)
}

// top returns the smallest key of a reached but unsettled node, dropping
// the stale queue duplicates ahead of it; ok is false once the tree is
// exhausted.
func (t *sptiTree) top() (key graph.Weight, ok bool) {
	for t.bq.Len() > 0 {
		v, key := t.bq.Top()
		if !t.t.Settled(v) {
			return key, true
		}
		t.bq.Pop()
	}
	return 0, false
}

// settleNext pops and settles the next node if its key is at most tau. It
// reports false, settling nothing, when the next key exceeds tau, the tree
// is exhausted or the query bound tripped (the last two are told apart by
// exhausted() and the bound's sticky error).
func (t *sptiTree) settleNext(tau graph.Weight) bool {
	if key, ok := t.top(); !ok || key > tau {
		return false
	}
	if t.bound.Step() != nil {
		return false
	}
	v, _ := t.bq.Pop()
	tr := t.t
	tr.settle(v)
	t.open--
	t.nsettled++
	if t.st != nil {
		t.st.SPTNodes++
		t.st.NodesPopped++
	}
	dv := tr.dist[v]
	t.sp.expand(v, func(to graph.NodeID, w graph.Weight) {
		nd := dv + w
		if tr.reach[to] == tr.epoch {
			if nd < tr.dist[to] {
				t.improve(to, nd, tr.h[to], v)
			}
		} else if hv := hOrZero(t.h, to); hv < graph.Infinity {
			t.improve(to, nd, hv, v)
		}
	})
	return true
}

// initialPath runs phase one: grow until the goal settles, then settle the
// goal's key-ties too, so the tree is exactly {key ≤ δ} whichever order
// the queue pops ties in. It returns the first shortest path translated
// into the OTHER space (suffix after that space's root, cumulative
// lengths, total). Walking the parents from the goal reads the path
// backwards, which is exactly the other space's order. The result lives in
// the workspace arenas, like every searchResult.
func (t *sptiTree) initialPath() (searchResult, bool) {
	for !t.t.Settled(t.sp.Goal) {
		if !t.settleNext(math.MaxInt64) {
			return searchResult{}, false
		}
	}
	total := t.t.Dist(t.sp.Goal)
	t.growTo(total) // h(goal) = 0, so the goal's key is its distance
	chain := t.ws.rev[:0]
	for v := t.sp.Goal; v >= 0; v = t.t.Parent(v) {
		chain = append(chain, v)
	}
	t.ws.rev = chain
	n := len(chain) - 1 // the other space's root is this tree's goal
	res := searchResult{
		Suffix: t.ws.nodeArena.take(n)[:n],
		Lens:   t.ws.lenArena.take(n)[:n],
		Total:  total,
	}
	for i := 0; i < n; i++ {
		v := chain[i+1]
		res.Suffix[i] = v
		res.Lens[i] = total - t.t.Dist(v)
	}
	return res, true
}

// growTo resumes the search until every node with key ≤ tau is settled
// (keys are monotone because the growth heuristic is consistent), or the
// bound trips and the engine will abort.
func (t *sptiTree) growTo(tau graph.Weight) {
	for t.settleNext(tau) {
	}
}

// exhausted reports whether the tree can grow no further — at that point
// "not in SPT_I" means "unreachable from the source side".
func (t *sptiTree) exhausted() bool { return t.open == 0 }

// size returns the number of settled nodes (span payload).
func (t *sptiTree) size() int { return t.nsettled }

// Allow restricts reverse-space searches to SPT_I nodes: ok reports
// whether v may be explored, and definitive whether an exclusion is
// permanent (v provably lies on no result path) rather than dependent on
// the tree's future growth. Non-definitive exclusions make a search
// report Exceeded instead of Empty; they become definitive once the tree
// is exhausted.
func (t *sptiTree) Allow(v graph.NodeID) (ok, definitive bool) {
	if t.t.Settled(v) {
		return true, true
	}
	return false, t.exhausted()
}
