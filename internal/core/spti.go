package core

import (
	"kpj/internal/fault"
	"kpj/internal/graph"
)

// sptiTree is the incremental shortest path tree of Section 5.3: a paused
// A* over the FORWARD space from the source side toward the destination
// category, keyed by ds(v) + lb(v, V_T). Phase one (initSPTI +
// initialPath) settles nodes until the virtual target is reached — the
// by-product is the first shortest path. growTo(τ) then resumes the search
// until every node with ds(v) + lb(v, V_T) ≤ τ is settled, which by
// Prop. 5.2 covers every node on any source→V_T path of length ≤ τ. The
// reverse-space TestLB prunes everything not settled here.
//
// The tree state lives in the workspace's shared SPT scratch; only this
// thin driver is per-query.
type sptiTree struct {
	fwd *Space
	h   Heuristic // growth key heuristic: Eq. 2 bound toward V_T (or zero)
	t   *SPT
	ws  *Workspace
	// nsettled counts settled nodes for the spt_build/grow span payloads.
	nsettled int
	st       *Stats
	bound    *Bound
}

// initSPTI seeds the workspace-cached incremental tree for a new query.
func (ws *Workspace) initSPTI(fwd *Space, h Heuristic, st *Stats, bound *Bound) *sptiTree {
	t := &ws.spti
	*t = sptiTree{fwd: fwd, h: h, t: &ws.spt, ws: ws, st: st, bound: bound}
	t.t.begin(fwd.NumSpaceNodes())
	t.t.setDist(fwd.Root, 0, -1)
	t.t.q.PushOrDecrease(fwd.Root, hOrZero(h, fwd.Root))
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
			t.bound.Inject(ferr)
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
		dv := t.t.Dist(v)
		t.fwd.Expand(v, func(to graph.NodeID, w graph.Weight) {
			if nd := dv + w; nd < t.t.Dist(to) {
				h := hOrZero(t.h, to)
				if h >= graph.Infinity {
					return
				}
				t.t.setDist(to, nd, v)
				t.t.q.PushOrDecrease(to, nd+h)
			}
		})
		return v
	}
	return -1
}

// initialPath runs phase one: grow until the forward goal (the virtual
// target) settles, and return the first shortest path translated into the
// REVERSE space (suffix after the reverse root, cumulative lengths). The
// result lives in the workspace arenas, like every SearchResult.
func (t *sptiTree) initialPath() (SearchResult, bool) {
	for !t.t.Settled(t.fwd.Goal) {
		if t.settleOne() < 0 {
			return SearchResult{}, false
		}
	}
	// Forward chain goal→root via parents, which read left to right is
	// exactly the reverse-space order: virtual target → … → source side.
	chain := t.ws.rev[:0]
	for v := t.fwd.Goal; v >= 0; v = t.t.Parent(v) {
		chain = append(chain, v)
	}
	t.ws.rev = chain
	total := t.t.Dist(t.fwd.Goal)
	n := len(chain) - 1 // reverse-space root is the virtual target
	res := SearchResult{
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

// Allow implements Pruner, restricting reverse-space searches to SPT_I
// nodes. Exclusions are definitive only once the tree is exhausted.
func (t *sptiTree) Allow(v graph.NodeID) (bool, bool) {
	if t.t.Settled(v) {
		return true, true
	}
	return false, t.exhausted()
}

// sptiHeuristic estimates the remaining distance in the REVERSE space
// (i.e. the distance from the source side to v): exact ds for settled
// nodes, landmark fallback otherwise (Alg. 8 line 5).
type sptiHeuristic struct {
	t        *sptiTree
	fallback Heuristic
}

// H implements Heuristic.
func (h sptiHeuristic) H(v graph.NodeID) graph.Weight {
	if h.t.t.Settled(v) {
		return h.t.t.Dist(v)
	}
	return hOrZero(h.fallback, v)
}
