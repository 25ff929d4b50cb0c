package core

import "kpj/internal/graph"

// SearchStatus classifies the outcome of a subspace search.
type SearchStatus int

const (
	// Found: the shortest path of the subspace was computed.
	Found SearchStatus = iota
	// Exceeded: every path in the subspace is longer than the bound τ
	// (or was blocked by a non-definitive SPT_I exclusion) — the
	// subspace survives with the larger lower bound τ.
	Exceeded
	// Empty: the subspace provably contains no path at all.
	Empty
	// Aborted: the query's Bound tripped (context canceled or budget
	// exhausted) mid-search. The subspace's status is unknown; the caller
	// must stop and report the query Bound's Err.
	Aborted
)

func (s SearchStatus) String() string {
	switch s {
	case Found:
		return "found"
	case Exceeded:
		return "exceeded"
	case Aborted:
		return "aborted"
	default:
		return "empty"
	}
}

// searchResult carries a Found subspace shortest path: the node suffix
// strictly after the subspace vertex's node, the cumulative path length at
// each suffix node (measured from the space root), and the total length.
// Suffix/Lens feed pseudoTree.InsertSuffix directly.
type searchResult struct {
	Suffix []graph.NodeID
	Lens   []graph.Weight
	Total  graph.Weight
}

// subspaceSearch computes the shortest path of the subspace represented by
// pseudo-tree vertex u — the paper's CompSP when tau == graph.Infinity and
// TestLB (Alg. 5) otherwise. It runs a restricted A* from u's node:
//
//   - nodes on the tree prefix of u are banned (paths must stay simple);
//   - the first hop out of u must avoid X_u (u's tree child edges);
//   - successors with dist+h > tau are pruned, which makes the search
//     explore only the small ≤τ neighbourhood (Lemma 5.1);
//   - an optional SPT_I tree excludes the nodes it has not settled
//     (Section 5.3); see sptiTree.Allow.
//
// The heuristic must be admissible; it need not be consistent (nodes are
// re-expanded when reached more cheaply). Statistics are accumulated in st
// when non-nil.
func (ws *Workspace) subspaceSearch(sp *Space, pt *pseudoTree, u VertexID, h Heuristic, tau graph.Weight, tree *sptiTree, st *Stats) (searchResult, SearchStatus) {
	ws.beginSearch()
	ws.beginBans()
	pt.PrefixNodes(u, ws.banNode)

	start := pt.Node(u)
	startDist := pt.PrefixLen(u)
	pruned := false

	if st != nil {
		st.Searches++
	}

	relax := func(from, to graph.NodeID, nd graph.Weight) {
		if ws.isBanned(to) {
			return
		}
		if nd >= ws.distOf(to) {
			return
		}
		if tree != nil {
			if ok, definitive := tree.Allow(to); !ok {
				if !definitive {
					pruned = true
				}
				return
			}
		}
		hv := ws.hOf(h, to)
		if hv >= graph.Infinity {
			return // goal provably unreachable from `to`
		}
		if nd+hv > tau {
			pruned = true
			return
		}
		ws.setDist(to, nd, from)
		ws.q.PushOrDecrease(int32(to), nd+hv)
		ws.bound.Work(1)
		if st != nil {
			st.EdgesRelaxed++
		}
	}

	if hs := ws.hOf(h, start); hs >= graph.Infinity {
		return searchResult{}, Empty // goal provably unreachable from u
	} else if startDist+hs > tau {
		// The subspace's own prefix already exceeds the bound.
		return searchResult{}, Exceeded
	}
	// Expand the start vertex by hand so the X_u first-hop exclusions
	// apply; the main loop below never re-expands it (it is banned).
	sp.expand(start, func(to graph.NodeID, w graph.Weight) {
		if !pt.ExcludedHas(u, to) {
			relax(start, to, startDist+w)
		}
	})

	for ws.q.Len() > 0 {
		if ws.bound.Step() != nil {
			return searchResult{}, Aborted
		}
		vi, _ := ws.q.Pop()
		v := graph.NodeID(vi)
		if st != nil {
			st.NodesPopped++
		}
		if v == sp.Goal {
			return ws.reconstruct(pt, u, v), Found
		}
		dv := ws.dist[v]
		sp.expand(v, func(to graph.NodeID, w graph.Weight) {
			relax(v, to, dv+w)
		})
	}
	if pruned {
		return searchResult{}, Exceeded
	}
	return searchResult{}, Empty
}

// reconstruct walks the parent pointers from the goal back to the start
// vertex's node and packages the suffix in forward order. Suffix and Lens
// live in the workspace's per-query arenas: valid until the workspace's
// next query, copied by pseudoTree.InsertSuffix and path materialization
// before then.
func (ws *Workspace) reconstruct(pt *pseudoTree, u VertexID, goal graph.NodeID) searchResult {
	start := pt.Node(u)
	rev := ws.rev[:0]
	for v := goal; v != start; v = ws.parent[v] {
		rev = append(rev, v)
	}
	ws.rev = rev
	n := len(rev)
	res := searchResult{
		Suffix: ws.nodeArena.take(n)[:n],
		Lens:   ws.lenArena.take(n)[:n],
		Total:  ws.dist[goal],
	}
	for i := range rev {
		v := rev[n-1-i]
		res.Suffix[i] = v
		res.Lens[i] = ws.dist[v]
	}
	return res
}

// CompLB computes the light-weight one-hop lower bound of the subspace at
// vertex u (paper Alg. 3, and Alg. 8 when tree, the SPT_I tree, is
// supplied): the minimum over u's valid outgoing space edges (u,v) of
// prefixLen(u) + ω(u,v) + h(v). At the space root the tree's
// D-restriction excludes the first hops it has not settled. It returns
// graph.Infinity when the subspace is provably empty. A non-definitive
// root exclusion (the SPT_I "D ≠ V_T" case) degrades the result to 0
// instead, because the excluded edges might hide shorter paths (Alg. 8
// line 8).
func (ws *Workspace) CompLB(sp *Space, pt *pseudoTree, u VertexID, h Heuristic, tree *sptiTree, st *Stats) graph.Weight {
	ws.beginBans()
	bumpEpoch(&ws.hepoch, ws.hstamp)
	pt.PrefixNodes(u, ws.banNode)
	return ws.oneHopLB(sp, pt, u, h, tree, st)
}

// chainLBs is CompLB over one division's candidates, each the tree child
// of the one before (the deviation vertex, then its new suffix), writing
// lbs[i] for cands[i]. Each candidate's prefix is the one before plus the
// nodes down to it, so the prefix is banned once and extended per
// candidate, and h stays memoized across the division — the tree does
// not grow within one.
func (ws *Workspace) chainLBs(sp *Space, pt *pseudoTree, cands []VertexID, lbs []graph.Weight, h Heuristic, tree *sptiTree, st *Stats) {
	ws.beginBans()
	bumpEpoch(&ws.hepoch, ws.hstamp)
	prev := VertexID(-1)
	for i, u := range cands {
		for v := u; v != prev; v = pt.Parent(v) {
			ws.banNode(pt.Node(v))
		}
		prev = u
		lbs[i] = ws.oneHopLB(sp, pt, u, h, tree, st)
	}
}

// oneHopLB is CompLB's minimum over u's out-edges, with every node of u's
// prefix already banned and the h memo scope open.
func (ws *Workspace) oneHopLB(sp *Space, pt *pseudoTree, u VertexID, h Heuristic, tree *sptiTree, st *Stats) graph.Weight {
	root := tree // Alg. 8 restricts the virtual root's first hops only
	if pt.Node(u) != sp.Root {
		root = nil
	}
	if st != nil {
		st.LowerBounds++
	}

	lb := graph.Infinity
	sawBlocked := false
	prefix := pt.PrefixLen(u)
	node := pt.Node(u)
	sp.expand(node, func(to graph.NodeID, w graph.Weight) {
		if ws.isBanned(to) {
			return
		}
		if pt.ExcludedHas(u, to) {
			return
		}
		if root != nil {
			if ok, definitive := root.Allow(to); !ok {
				if !definitive {
					sawBlocked = true
				}
				return
			}
		}
		hv := ws.hOf(h, to)
		if hv >= graph.Infinity {
			return
		}
		if est := prefix + w + hv; est < lb {
			lb = est
		}
	})
	if lb >= graph.Infinity && sawBlocked {
		return 0
	}
	return lb
}

// Stats counts the work a query performed; the experiments report them
// alongside wall-clock time (the paper's "number of shortest path
// computations" discussion around Lemma 4.1).
type Stats struct {
	Searches     int64 // subspace shortest-path / TestLB invocations
	LowerBounds  int64 // CompLB invocations
	NodesPopped  int64 // priority-queue pops across all searches
	EdgesRelaxed int64 // successful relaxations across all searches
	TauRounds    int64 // TestLB rounds that returned Exceeded
	SPTNodes     int64 // nodes settled into SPT_P / SPT_I
}

// Add accumulates other into st.
func (st *Stats) Add(other Stats) {
	st.Searches += other.Searches
	st.LowerBounds += other.LowerBounds
	st.NodesPopped += other.NodesPopped
	st.EdgesRelaxed += other.EdgesRelaxed
	st.TauRounds += other.TauRounds
	st.SPTNodes += other.SPTNodes
}
