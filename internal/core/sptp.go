package core

import (
	"kpj/internal/fault"
	"kpj/internal/graph"
)

// buildPartialSPT implements the paper's PartialSPT (Alg. 6): an A* search
// over the reverse space from the virtual target toward the source side,
// stopped as soon as the source side is settled. The settled nodes form
// SPT_P with exact remaining-distances dt(v) = δ(v, V_T) (Prop. 5.1), and
// the search's own result is the first shortest path — SPT_P costs nothing
// beyond computing P₁.
//
// The tree is built into ws's shared SPT scratch (epoch-stamped, so no
// O(n) init); the initial path is translated into the FORWARD space
// (suffix after the forward root, cumulative lengths, total) with its
// slices in the workspace arenas. ok=false when no path exists.
func buildPartialSPT(ws *Workspace, rev *Space, revH Heuristic, st *Stats, bound *Bound) (t *SPT, init SearchResult, ok bool) {
	t = &ws.spt
	t.begin(rev.NumSpaceNodes())
	root := rev.Root
	t.setDist(root, 0, -1)
	t.q.PushOrDecrease(root, hOrZero(revH, root))
	for t.q.Len() > 0 {
		if ferr := fault.Hit(fault.SPTGrow); ferr != nil {
			bound.Inject(ferr)
		}
		if bound.Step() != nil {
			break // abort: the goal stays unsettled, reported via ok=false
		}
		vi, _ := t.q.Pop()
		v := graph.NodeID(vi)
		if t.Settled(v) {
			continue
		}
		t.settle(v)
		if st != nil {
			st.SPTNodes++
			st.NodesPopped++
		}
		if v == rev.Goal {
			break
		}
		dv := t.Dist(v)
		rev.Expand(v, func(to graph.NodeID, w graph.Weight) {
			if nd := dv + w; nd < t.Dist(to) {
				h := hOrZero(revH, to)
				if h >= graph.Infinity {
					return
				}
				t.setDist(to, nd, v)
				t.q.PushOrDecrease(to, nd+h)
			}
		})
	}
	if !t.Settled(rev.Goal) {
		return t, SearchResult{}, false
	}

	// Translate the found reverse path into the forward space: walking the
	// reverse parents from the goal yields exactly the forward node order
	// source-side → … → virtual target.
	chain := ws.rev[:0]
	for v := rev.Goal; v >= 0; v = t.Parent(v) {
		chain = append(chain, v)
	}
	ws.rev = chain
	total := t.Dist(rev.Goal)
	n := len(chain) - 1
	init = SearchResult{
		Suffix: ws.nodeArena.take(n)[:n],
		Lens:   ws.lenArena.take(n)[:n],
		Total:  total,
	}
	for i := 0; i < n; i++ {
		v := chain[i+1]
		init.Suffix[i] = v
		init.Lens[i] = total - t.Dist(v)
	}
	return t, init, true
}

func hOrZero(h Heuristic, v graph.NodeID) graph.Weight {
	if h == nil {
		return 0
	}
	return h.H(v)
}
