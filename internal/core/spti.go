package core

import (
	"kpj/internal/fault"
	"kpj/internal/graph"
)

// sptiTree is the paused A* behind both shortest path trees of Section 5:
// it searches one side of G_Q from its root toward its goal, keyed by
// distance plus the lower bound h toward the goal. Phase one (initSPTI +
// initialPath) settles nodes until the goal is reached — the by-product is
// the first shortest path.
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
// The tree state lives in the workspace's shared SPT scratch; only this
// thin driver is per-query.
type sptiTree struct {
	sp *Space
	h  Heuristic // growth key heuristic toward sp's goal (or zero)
	t  *SPT
	ws *Workspace
	// nsettled counts settled nodes for the spt_build span payload.
	nsettled int
	st       *Stats
	bound    *Bound
}

// initSPTI seeds the workspace-cached tree over sp for a new query.
func (ws *Workspace) initSPTI(sp *Space, h Heuristic, st *Stats, bound *Bound) *sptiTree {
	t := &ws.spti
	*t = sptiTree{sp: sp, h: h, t: &ws.spt, ws: ws, st: st, bound: bound}
	t.t.begin(sp.numSpaceNodes())
	t.t.setDist(sp.Root, 0, -1)
	t.t.q.PushOrDecrease(sp.Root, hOrZero(h, sp.Root))
	return t
}

// settleOne pops and settles the next node, returning it (or -1 when the
// frontier is exhausted or the query bound tripped — the two are told
// apart by exhausted()/the bound's sticky error).
func (t *sptiTree) settleOne() graph.NodeID {
	for t.t.q.Len() > 0 {
		// The mid-SPT-growth fault point: injected errors stop growth via
		// the bound, and the engine aborts with its prefix at the next poll.
		if ferr := fault.Hit(fault.SPTGrow); ferr != nil {
			t.bound.inject(ferr)
		}
		if t.bound.Step() != nil {
			return -1
		}
		vi, _ := t.t.q.Pop()
		v := graph.NodeID(vi)
		if t.t.Settled(v) {
			continue
		}
		t.t.settle(v)
		t.nsettled++
		if t.st != nil {
			t.st.SPTNodes++
			t.st.NodesPopped++
		}
		dv, q := t.t.Dist(v), t.t.q
		t.sp.expand(v, func(to graph.NodeID, w graph.Weight) {
			dto := t.t.Dist(to)
			if nd := dv + w; nd < dto {
				// A queued node's key is always dist + h, so its h is
				// read back from the queue rather than re-evaluated.
				var h graph.Weight
				if q.Contains(to) {
					h = q.Key(to) - dto
				} else if h = hOrZero(t.h, to); h >= graph.Infinity {
					return
				}
				t.t.setDist(to, nd, v)
				q.PushOrDecrease(to, nd+h)
			}
		})
		return v
	}
	return -1
}

// initialPath runs phase one: grow until the goal settles, and return the
// first shortest path translated into the OTHER space (suffix after that
// space's root, cumulative lengths, total). Walking the parents from the
// goal reads the path backwards, which is exactly the other space's order.
// The result lives in the workspace arenas, like every searchResult.
func (t *sptiTree) initialPath() (searchResult, bool) {
	for !t.t.Settled(t.sp.Goal) {
		if t.settleOne() < 0 {
			return searchResult{}, false
		}
	}
	chain := t.ws.rev[:0]
	for v := t.sp.Goal; v >= 0; v = t.t.Parent(v) {
		chain = append(chain, v)
	}
	t.ws.rev = chain
	total := t.t.Dist(t.sp.Goal)
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
// (keys are monotone because the growth heuristic is consistent).
func (t *sptiTree) growTo(tau graph.Weight) {
	for t.t.q.Len() > 0 && t.t.q.TopKey() <= tau {
		if t.settleOne() < 0 {
			return // bound tripped: stop growing, the engine will abort
		}
	}
}

// exhausted reports whether the tree can grow no further — at that point
// "not in SPT_I" means "unreachable from the source side".
func (t *sptiTree) exhausted() bool { return t.t.q.Len() == 0 }

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
