package core

import (
	"kpj/internal/graph"
	"kpj/internal/landmark"
	"kpj/internal/obs"
)

// This file wires the engine into the paper's four contributed algorithms.
// Each processes the same Query; they differ in search space, heuristics,
// and bounding discipline:
//
//	BestFirst        Section 4   forward space, exact subspace resolution
//	IterBound        Section 5.1 forward space, TestLB with growing τ
//	IterBoundSPTP    Section 5.2 + partial SPT heuristic from Alg. 6
//	IterBoundSPTI    Section 5.3 reverse space + incremental SPT pruning
//
// Passing a nil Options.Index runs each variant without landmarks
// (Section 6); for IterBoundSPTI that is exactly the paper's
// IterBound_I-NL algorithm.
//
// All per-query machinery (spaces, pseudo-tree, engine scratch, heuristic
// boxes) comes out of the Workspace, so repeated queries on a warm
// workspace run the steady state without heap allocations.

// forwardHeuristic picks the Eq. 2 category bound when landmarks are
// available, the zero heuristic otherwise. With an Options.SetBounds cache
// the per-category table is fetched from (or inserted into) the cache
// instead of being rebuilt per query. The heuristic is boxed in workspace
// storage (ZeroHeuristic is zero-size and boxes for free).
func forwardHeuristic(ws *Workspace, sp *Space, q Query, opt *Options) Heuristic {
	if opt.Index == nil {
		return ZeroHeuristic{}
	}
	endSpan := opt.Spans.Start(obs.PhaseLBTables, 0)
	var b *landmark.Bounds
	if opt.SetBounds != nil {
		b = opt.SetBounds.BoundsToSet(opt.Index, q.Targets)
	} else {
		b = opt.Index.BoundsToSet(q.Targets)
	}
	endSpan(int64(len(q.Targets)))
	ws.catH = CategoryHeuristic{Space: sp, Bounds: b}
	return &ws.catH
}

// reverseHeuristic bounds the remaining distance toward the source side of
// a reverse space.
func reverseHeuristic(ws *Workspace, sp *Space, q Query, opt *Options) Heuristic {
	if opt.Index == nil {
		return ZeroHeuristic{}
	}
	if len(q.Sources) == 1 {
		ws.srcH = SourceHeuristic{Space: sp, Index: opt.Index, Source: q.Sources[0]}
		return &ws.srcH
	}
	endSpan := opt.Spans.Start(obs.PhaseLBTables, 0)
	var b *landmark.FromBounds
	if opt.SetBounds != nil {
		b = opt.SetBounds.BoundsFromSet(opt.Index, q.Sources)
	} else {
		b = opt.Index.BoundsFromSet(q.Sources)
	}
	endSpan(int64(len(q.Sources)))
	ws.setH = SourceSetHeuristic{Space: sp, Bounds: b}
	return &ws.setH
}

// configure fills the engine fields shared by all four algorithms.
func configure(e *engine, sp *Space, k int, opt *Options, pool *Pool) {
	e.sp = sp
	e.pt = e.ws.ResetTree(sp.Root)
	e.k = k
	e.bound = opt.bound
	e.pool = pool
	e.stats = opt.Stats
	e.onEvent = opt.Trace
	e.spans = opt.Spans
	e.reuse = opt.ReuseResults
}

// BestFirst processes a query with the best-first paradigm (paper Alg. 2):
// subspaces are resolved exactly, in lower-bound order, so only subspaces
// whose lower bound beats the current k-th length ever pay for a shortest
// path computation.
func BestFirst(g *graph.Graph, q Query, opt Options) ([]Path, error) {
	ws, err := Prepare(g, q, &opt, false)
	if err != nil {
		return nil, err
	}
	sp := ws.ForwardSpace(g, q.Sources, q.Targets)
	h := forwardHeuristic(ws, sp, q, &opt)
	pool := opt.NewPool(sp.NumSpaceNodes())
	defer pool.Close()
	e := ws.engine()
	configure(e, sp, q.K, &opt, pool)
	e.searchH, e.lbH = h, h
	e.alpha = 0 // exact resolution
	return e.run()
}

// IterBound processes a query with the iteratively bounding approach
// (paper Alg. 4): unresolved subspaces are tested against a threshold τ
// that grows geometrically by Options.Alpha, so most subspaces are pruned
// by cheap bounded searches instead of full shortest path computations.
func IterBound(g *graph.Graph, q Query, opt Options) ([]Path, error) {
	ws, err := Prepare(g, q, &opt, true)
	if err != nil {
		return nil, err
	}
	sp := ws.ForwardSpace(g, q.Sources, q.Targets)
	h := forwardHeuristic(ws, sp, q, &opt)
	pool := opt.NewPool(sp.NumSpaceNodes())
	defer pool.Close()
	e := ws.engine()
	configure(e, sp, q.K, &opt, pool)
	e.searchH, e.lbH = h, h
	e.alpha = opt.Alpha
	return e.run()
}

// IterBoundSPTP is IterBound with the partial shortest path tree of
// Section 5.2: the first shortest path computation leaves behind exact
// remaining-distances for every node it settled (SPT_P), which then
// sharpen all later lower-bound tests at zero extra build cost.
func IterBoundSPTP(g *graph.Graph, q Query, opt Options) ([]Path, error) {
	ws, err := Prepare(g, q, &opt, true)
	if err != nil {
		return nil, err
	}
	sp := ws.ForwardSpace(g, q.Sources, q.Targets)
	rev := ws.ReverseSpace(g, q.Sources, q.Targets)
	endSPT := opt.Spans.Start(obs.PhaseSPTBuild, 0)
	t, init, ok := buildPartialSPT(ws, rev, reverseHeuristic(ws, rev, q, &opt), opt.Stats, opt.bound)
	endSPT(int64(rev.NumSpaceNodes()))
	if !ok {
		return nil, opt.bound.Err()
	}
	h := ws.CachedTreeHeuristic(t, forwardHeuristic(ws, sp, q, &opt))
	pool := opt.NewPool(sp.NumSpaceNodes())
	defer pool.Close()
	e := ws.engine()
	configure(e, sp, q.K, &opt, pool)
	e.searchH, e.lbH = h, h
	e.alpha = opt.Alpha
	e.init, e.haveInit = init, true
	return e.run()
}

// IterBoundSPTI is the paper's flagship algorithm (Section 5.3): the
// search runs in the reverse space, every exploration is confined to the
// incremental shortest path tree SPT_I — which grows lazily with τ — and
// remaining-distance estimates inside SPT_I are exact. With a nil index
// this is the paper's IterBound_I-NL variant.
func IterBoundSPTI(g *graph.Graph, q Query, opt Options) ([]Path, error) {
	ws, err := Prepare(g, q, &opt, true)
	if err != nil {
		return nil, err
	}
	fwd := ws.ForwardSpace(g, q.Sources, q.Targets)
	rev := ws.ReverseSpace(g, q.Sources, q.Targets)
	endSPT := opt.Spans.Start(obs.PhaseSPTBuild, 0)
	tree := ws.initSPTI(fwd, forwardHeuristic(ws, fwd, q, &opt), opt.Stats, opt.bound)
	init, ok := tree.initialPath()
	endSPT(int64(tree.size()))
	if !ok {
		return nil, opt.bound.Err()
	}
	ws.sptiH = sptiHeuristic{t: tree, fallback: reverseHeuristic(ws, rev, q, &opt)}
	h := &ws.sptiH
	pool := opt.NewPool(rev.NumSpaceNodes())
	defer pool.Close()
	e := ws.engine()
	configure(e, rev, q.K, &opt, pool)
	e.searchH, e.lbH = h, h
	e.pruner, e.lbRootPruner = tree, tree
	e.alpha = opt.Alpha
	e.grow = tree
	e.init, e.haveInit = init, true
	return e.run()
}

// Func is the common algorithm signature, used by the experiment drivers
// and cross-validation tests.
type Func func(*graph.Graph, Query, Options) ([]Path, error)

// Algorithms enumerates the contributed algorithms by their paper names.
// The deviation baselines (DA, DA-SPT) live in the internal/deviation
// package and are registered separately by callers that need them.
func Algorithms() map[string]Func {
	return map[string]Func{
		"BestFirst":  BestFirst,
		"IterBound":  IterBound,
		"IterBoundP": IterBoundSPTP,
		"IterBoundI": IterBoundSPTI,
		"IterBoundI-NL": func(g *graph.Graph, q Query, opt Options) ([]Path, error) {
			opt.Index = nil
			return IterBoundSPTI(g, q, opt)
		},
	}
}
