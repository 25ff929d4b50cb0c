package core

import (
	"kpj/internal/graph"
	"kpj/internal/landmark"
)

// This file provides the Heuristic implementations shared by the
// algorithms. Every heuristic estimates the remaining distance from a
// space node to the space goal and returns 0 for the goal itself and for
// virtual nodes (always admissible).

// zeroHeuristic is the trivial heuristic — searches degrade to Dijkstra.
// It backs the DA baseline and the "-NL" (no landmark) variants
// (Section 6: "setting all lb(u, V_T) to be 0").
type zeroHeuristic struct{}

// H implements Heuristic.
func (zeroHeuristic) H(graph.NodeID) graph.Weight { return 0 }

// categoryHeuristic is the paper's Eq. (2) bound for forward spaces: the
// remaining distance from v to the virtual target is min_{u∈V_T} δ(v, u),
// lower-bounded with the per-query landmark tables.
type categoryHeuristic struct {
	Space  *Space
	Bounds *landmark.Bounds
}

// H implements Heuristic.
func (h categoryHeuristic) H(v graph.NodeID) graph.Weight {
	if h.Space.IsVirtual(v) {
		return 0
	}
	return h.Bounds.LowerBound(v)
}

// sourceHeuristic bounds the remaining distance in a reverse space with a
// single physical source s: remaining(v) = δ_G(s, v), lower-bounded by the
// pairwise landmark bound lb(s, v) (used by Alg. 5/6/7 on the reverse
// side).
type sourceHeuristic struct {
	Space  *Space
	Index  *landmark.Index
	Source graph.NodeID
}

// H implements Heuristic.
func (h sourceHeuristic) H(v graph.NodeID) graph.Weight {
	if h.Space.IsVirtual(v) {
		return 0
	}
	return h.Index.LowerBound(h.Source, v)
}

// sourceSetHeuristic is SourceHeuristic for GKPJ queries (Section 6):
// remaining(v) = min_{u∈V_S} δ_G(u, v).
type sourceSetHeuristic struct {
	Space  *Space
	Bounds *landmark.FromBounds
}

// H implements Heuristic.
func (h sourceSetHeuristic) H(v graph.NodeID) graph.Weight {
	if h.Space.IsVirtual(v) {
		return 0
	}
	return h.Bounds.LowerBound(v)
}

// treeHeuristic overlays exact distances from a (partial) shortest path
// tree on top of a fallback heuristic: nodes settled in the tree use their
// exact remaining distance (paper Prop. 5.1 — "for lower bound, the larger
// the better"; Alg. 8 line 5 for SPT_I), everything else falls back. The
// mixture is admissible but not consistent, which subspaceSearch
// tolerates by re-expansion.
type treeHeuristic struct {
	T        *shortestPathTree // exact remaining distances for settled nodes
	Fallback Heuristic
}

// H implements Heuristic.
func (h treeHeuristic) H(v graph.NodeID) graph.Weight {
	if h.T.Settled(v) {
		return h.T.Dist(v)
	}
	return hOrZero(h.Fallback, v)
}

func hOrZero(h Heuristic, v graph.NodeID) graph.Weight {
	if h == nil {
		return 0
	}
	return h.H(v)
}
