package core

import "kpj/internal/graph"

// pascoal attempts the constant-time candidate of Pascoal [24] against the
// full shortest path tree toward the virtual target (spt, grown over the
// reverse space, so Parent points toward the target): among the valid
// first hops (u, v) of the subspace at vertex u, take the one minimizing
// prefix + ω(u,v) + δ(v, target); if concatenating the prefix, that edge,
// and v's tree path to the target yields a simple path, it is the
// subspace's shortest path. Otherwise ok=false and the caller must run a
// full search.
//
// Simplicity is checked with the workspace's epoch-stamped ban marks; the
// scope is consumed before any subspaceSearch on ws begins, so sharing the
// ban storage is safe. The result slices live in ws's per-query arenas.
func (ws *Workspace) pascoal(spt *SPT, sp *Space, pt *pseudoTree, u VertexID) (searchResult, bool) {
	ws.beginBans()
	pt.PrefixNodes(u, ws.banNode)

	best := graph.NodeID(-1)
	bestW := graph.Infinity
	var bestEdge graph.Weight
	prefixLen := pt.PrefixLen(u)
	sp.expand(pt.Node(u), func(to graph.NodeID, w graph.Weight) {
		if ws.isBanned(to) || spt.Dist(to) >= graph.Infinity {
			return
		}
		if pt.ExcludedHas(u, to) {
			return
		}
		if est := prefixLen + w + spt.Dist(to); est < bestW {
			best, bestW, bestEdge = to, est, w
		}
	})
	if best < 0 {
		return searchResult{}, false // provably empty: no valid first hop reaches the target
	}

	// Walk best's tree path to the target, checking simplicity against the
	// prefix (the tree path itself is simple by construction, so marking
	// as we go also guards against a corrupted tree at no extra cost).
	n := 0
	for v := best; v >= 0; v = spt.Parent(v) {
		if ws.isBanned(v) {
			return searchResult{}, false // concatenation not simple: fall back
		}
		ws.banNode(v)
		n++
	}
	res := searchResult{
		Suffix: ws.nodeArena.take(n)[:n],
		Lens:   ws.lenArena.take(n)[:n],
		Total:  bestW,
	}
	length := prefixLen + bestEdge
	i := 0
	for v := best; v >= 0; v = spt.Parent(v) {
		res.Suffix[i] = v
		res.Lens[i] = length + (spt.Dist(best) - spt.Dist(v))
		i++
	}
	return res, true
}
