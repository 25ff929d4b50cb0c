package core

import (
	"kpj/internal/graph"
	"kpj/internal/obs"
)

// This file wires the engine into the paper's algorithms. All of them run
// one skeleton — the subspace queue of Alg. 1/2/4 over one side of G_Q —
// and differ only in the four switches of the variant table:
//
//	name           eager  τ-bounding  tree         index
//	DA             yes    no          none         no     Section 3, Alg. 1
//	DA-SPT         yes    no          full         no     Section 3, [15]
//	BestFirst      no     no (Alg. 2) none         yes    Section 4
//	IterBound      no     yes (Alg.4) none         yes    Section 5.1
//	IterBoundP     no     yes         partial      yes    Section 5.2, Alg. 6
//	IterBoundI     no     yes         incremental  yes    Section 5.3, Alg. 7/8
//	IterBoundI-NL  no     yes         incremental  no     Section 6
//
// An eager row is the deviation paradigm: every subspace is resolved
// exactly the moment a division creates it and enters the queue keyed by
// its shortest path length, which is the O(k·n) shortest path work the
// lazy rows avoid by enqueueing CompLB lower bounds instead.
//
// The partial and incremental trees are the same A* (sptiTree), keyed by
// distance plus a lower bound toward its goal, whose first phase stops
// when the goal settles and leaves behind the first shortest path. SPT_P
// runs that phase on the reverse space and the engine searches the
// forward space with the tree's exact remaining distances (Prop. 5.1);
// SPT_I runs it on the forward space, the engine searches the reverse
// space confined to the tree, and the tree keeps growing with τ
// (Prop. 5.2). DA-SPT's full tree is a complete Dijkstra over the reverse
// space; it supplies exact remaining distances and the Pascoal shortcut
// tried before every search.
//
// Passing a nil Options.Index runs any row without landmarks (Section 6).
// All per-query machinery (spaces, pseudo-tree, engine scratch, heuristic
// boxes) comes out of the Workspace, so repeated queries on a warm
// workspace run the steady state without heap allocations.

// treeKind selects the shortest path tree a variant builds before its
// main loop.
type treeKind uint8

const (
	noTree          treeKind = iota
	partialTree              // SPT_P: phase one on the reverse space, then frozen
	incrementalTree          // SPT_I: phase one on the forward space, grown to τ
	fullTree                 // DA-SPT: complete Dijkstra on the reverse space
)

// variant is one row of the paper's algorithm table.
type variant struct {
	name  string
	eager bool // resolve each subspace at division time (Alg. 1)
	tau   bool // TestLB with growing τ (Alg. 4); false resolves exactly (Alg. 2)
	tree  treeKind
	index bool // false forces the no-landmark variant (Section 6)
}

var variants = [...]variant{
	{name: "DA", eager: true, tau: false, tree: noTree, index: false},
	{name: "DA-SPT", eager: true, tau: false, tree: fullTree, index: false},
	{name: "BestFirst", tau: false, tree: noTree, index: true},
	{name: "IterBound", tau: true, tree: noTree, index: true},
	{name: "IterBoundP", tau: true, tree: partialTree, index: true},
	{name: "IterBoundI", tau: true, tree: incrementalTree, index: true},
	{name: "IterBoundI-NL", tau: true, tree: incrementalTree, index: false},
}

// Func is the common algorithm signature, used by the experiment drivers
// and cross-validation tests.
type Func func(*graph.Graph, Query, Options) ([]Path, error)

var (
	// DA processes a query with the plain deviation algorithm (paper
	// Alg. 1, [28]): every candidate path is computed by a restricted
	// Dijkstra over G_Q. Options.Index and Options.Alpha are ignored.
	DA Func = variants[0].run
	// DASPT processes a query with the DA-SPT baseline ([15], Section 3):
	// a full shortest path tree toward the virtual target is built first
	// (the dominating cost for short result paths, as the paper's
	// Figs. 7(e) and 7(f) show), after which candidates come from the
	// Pascoal simple-concatenation test and, only when that fails, from an
	// A* whose heuristic is the tree's exact remaining distance.
	DASPT Func = variants[1].run
	// BestFirst processes a query with the best-first paradigm (paper
	// Alg. 2): subspaces are resolved exactly, in lower-bound order, so only
	// subspaces whose lower bound beats the current k-th length ever pay
	// for a shortest path computation.
	BestFirst Func = variants[2].run
	// IterBound processes a query with the iteratively bounding approach
	// (paper Alg. 4): unresolved subspaces are tested against a threshold τ
	// that grows geometrically by Options.Alpha, so most subspaces are
	// pruned by cheap bounded searches instead of full shortest path
	// computations.
	IterBound Func = variants[3].run
	// IterBoundSPTP is IterBound with the partial shortest path tree of
	// Section 5.2: the first shortest path computation leaves behind exact
	// remaining-distances for every node it settled (SPT_P), which then
	// sharpen all later lower-bound tests at zero extra build cost.
	IterBoundSPTP Func = variants[4].run
	// IterBoundSPTI is the paper's flagship algorithm (Section 5.3): the
	// search runs in the reverse space, every exploration is confined to
	// the incremental shortest path tree SPT_I — which grows lazily with τ
	// — and remaining-distance estimates inside SPT_I are exact. With a nil
	// index this is the paper's IterBound_I-NL variant.
	IterBoundSPTI Func = variants[5].run
)

// Algorithms enumerates every row of the variant table, the deviation
// baselines (DA, DA-SPT) and the contributed algorithms, by their paper
// names.
func Algorithms() map[string]Func {
	m := make(map[string]Func, len(variants))
	for _, v := range variants {
		m[v.name] = v.run
	}
	return m
}

// run turns the row into a configured engine and runs the query on it.
func (v variant) run(g *graph.Graph, q Query, opt Options) ([]Path, error) {
	if !v.index {
		opt.Index = nil
	}
	ws, err := prepare(g, q, &opt, v.tau)
	if err != nil {
		return nil, err
	}
	e := ws.engine()
	e.sp = ws.forwardSpace(g, q.Sources, q.Targets)
	switch v.tree {
	case noTree:
		e.h = goalHeuristic(ws, e.sp, q, &opt)
	case fullTree:
		// DA-SPT's full tree toward the virtual target: the tree search
		// with no heuristic, grown to exhaustion ("the dominating cost of
		// constructing the full SPT" the paper attributes to it).
		endSPT := opt.Spans.Start(obs.PhaseSPTBuild, 0)
		full := ws.initSPTI(ws.reverseSpace(g, q.Sources, q.Targets), nil, opt.Stats, opt.bound)
		full.growTo(graph.Infinity)
		endSPT(int64(full.size()))
		if err := opt.bound.Err(); err != nil {
			return nil, err // never trust an incomplete tree
		}
		e.full = full.t
		e.h = ws.cachedTreeHeuristic(full.t, goalHeuristic(ws, e.sp, q, &opt))
	default:
		// The tree grows on one side of G_Q, the engine searches the other.
		treeSp := ws.reverseSpace(g, q.Sources, q.Targets)
		if v.tree == incrementalTree {
			treeSp, e.sp = e.sp, treeSp
		}
		endSPT := opt.Spans.Start(obs.PhaseSPTBuild, 0)
		tree := ws.initSPTI(treeSp, goalHeuristic(ws, treeSp, q, &opt), opt.Stats, opt.bound)
		init, ok := tree.initialPath()
		endSPT(int64(tree.size()))
		if !ok {
			return nil, opt.bound.Err()
		}
		e.init, e.haveInit = init, true
		e.h = ws.cachedTreeHeuristic(tree.t, goalHeuristic(ws, e.sp, q, &opt))
		if v.tree == incrementalTree {
			e.tree = tree
		}
	}
	e.pt = ws.resetTree(e.sp.Root)
	e.k = q.K
	e.eager = v.eager
	if v.tau {
		e.alpha = opt.Alpha
	}
	e.bound = opt.bound
	e.stats = opt.Stats
	e.onEvent = opt.Trace
	e.spans = opt.Spans
	e.reuse = opt.ReuseResults
	return e.run()
}

// goalHeuristic bounds the remaining distance to sp's goal: the Eq. 2
// category bound toward V_T in a forward space, the bound from the source
// (or source set) in a reverse space, and zero without landmarks. The
// per-set tables are rebuilt into workspace storage and the heuristic is
// boxed there too (zeroHeuristic is zero-size and boxes for free).
func goalHeuristic(ws *Workspace, sp *Space, q Query, opt *Options) Heuristic {
	switch {
	case opt.Index == nil:
		return zeroHeuristic{}
	case sp.Dir == graph.Forward:
		endSpan := opt.Spans.Start(obs.PhaseLBTables, 0)
		b := opt.Index.BoundsToSet(q.Targets, &ws.toSet)
		endSpan(int64(len(q.Targets)))
		ws.catH = categoryHeuristic{Space: sp, Bounds: b}
		return &ws.catH
	case len(q.Sources) == 1:
		ws.srcH = sourceHeuristic{Space: sp, Index: opt.Index, Source: q.Sources[0]}
		return &ws.srcH
	default:
		endSpan := opt.Spans.Start(obs.PhaseLBTables, 0)
		b := opt.Index.BoundsFromSet(q.Sources, &ws.fromSet)
		endSpan(int64(len(q.Sources)))
		ws.setH = sourceSetHeuristic{Space: sp, Bounds: b}
		return &ws.setH
	}
}
