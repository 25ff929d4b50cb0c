package core

import (
	"math"

	"kpj/internal/graph"
	"kpj/internal/obs"
	"kpj/internal/pqueue"
)

// entry is one element of the global subspace queue Q (paper Alg. 2/4):
// the subspace of pseudo-tree vertex `vertex`, keyed by `key` which is
// either the subspace lower bound (unresolved, res < 0) or the exact
// length of its shortest path (resolved, res indexes the engine's result
// store).
type entry struct {
	vertex VertexID
	key    graph.Weight
	res    int32 // index into engine.results; -1 while unresolved
}

// lessEntry orders the queue by key, breaking ties by pseudo-tree vertex
// id. Vertex ids are assigned at emission time, never during resolution,
// so the order depends on no search state: keys of unresolved entries are
// strict lower bounds of their subspace's shortest length, resolved keys
// are exact, and the emission order collapses to "sorted by (true length,
// vertex id)".
func lessEntry(a, b entry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.vertex < b.vertex
}

// engine runs the best-first paradigm (Alg. 2), when alpha > 1 with a
// finite bound schedule the iteratively bounding approach (Alg. 4), or,
// when eager, the deviation paradigm (Alg. 1). The algorithm variants
// differ only in the fields variant.run plugs in. One engine is cached per
// Workspace (see Workspace.engine): the configuration fields are rewritten
// per query while the scratch fields at the bottom retain their capacity,
// so a steady-state query allocates nothing here.
type engine struct {
	sp *Space
	pt *pseudoTree
	ws *Workspace
	k  int

	h Heuristic // lower bound for CompSP / TestLB and CompLB (Alg. 3 / Alg. 8)

	// tree, when non-nil, is the incremental SPT_I: every search is
	// confined to it (Alg. 8's D-restriction at the virtual root included),
	// and it is grown to τ before each bounded search so it covers the
	// ≤τ neighbourhood (Prop. 5.2).
	tree *sptiTree

	alpha float64 // >1: TestLB with growing τ; <=0: exact resolution (BestFirst)

	// eager resolves every new subspace exactly at division time instead
	// of enqueueing its CompLB lower bound: the deviation paradigm of
	// Alg. 1 (DA, DA-SPT).
	eager bool

	// full, when non-nil, is DA-SPT's complete shortest path tree toward
	// the goal; every exact search first tries the Pascoal shortcut on it.
	full *shortestPathTree

	// init seeds the queue with the shortest path of the entire space S_0
	// (Alg. 4 line 1) when haveInit is set (SPT_P/SPT_I got it as a
	// by-product of tree construction); otherwise an unrestricted
	// subspaceSearch computes it, which is what Alg. 2 does.
	init     searchResult
	haveInit bool

	// reuse makes emitted Path nodes alias the workspace arenas
	// (Options.ReuseResults) instead of copying per path.
	reuse bool

	// bound carries the query's cancellation/budget state; nil runs
	// unbounded. It is the same Bound installed in ws by prepare.
	bound *queryBound

	stats   *Stats
	onEvent TraceFunc

	// spans, when non-nil, records the phase timeline (bound iteration
	// N, division). Purely observational; nil costs one check.
	spans *obs.Spans

	// Retained scratch, reused across queries via the workspace cache.
	q       *pqueue.Heap[entry]
	results []searchResult
	cands   []VertexID
	lbs     []graph.Weight
	pathBuf []graph.NodeID
	out     []Path
}

// storeResult appends res to the per-query result store and returns its
// entry index. Entries hold indexes, not pointers, because the store grows
// by append.
func (e *engine) storeResult(res searchResult) int32 {
	e.results = append(e.results, res)
	return int32(len(e.results) - 1)
}

// nextTau implements Alg. 4 line 9 with integer-safe strict growth:
// τ' = α·max{lb(S), Q.top().key}, forced above the previous bound so the
// iteration always makes progress even for tiny or zero lengths.
func (e *engine) nextTau(lb graph.Weight, top graph.Weight, haveTop bool) graph.Weight {
	if e.alpha <= 0 {
		return graph.Infinity
	}
	m := lb
	if haveTop && top > m {
		m = top
	}
	t := graph.Weight(math.Ceil(e.alpha * float64(m)))
	if t <= lb {
		t = lb + 1
	}
	if t > graph.Infinity {
		t = graph.Infinity
	}
	return t
}

// run executes the main loop and returns up to k paths in non-decreasing
// length order. When the query's Bound trips mid-run, it returns the
// paths emitted so far (a prefix of the unbounded result, since the bound
// never alters the emission order) together with the bound's error.
//
// Each unresolved pop is one round of Alg. 4: τ = nextTau(lb, top), grow
// SPT_I to τ, search the subspace with TestLB, and push it back — resolved
// and keyed by its exact length when Found, or keyed by τ, a strict lower
// bound of its shortest length, when Exceeded.
func (e *engine) run() (out []Path, err error) {
	if e.q == nil {
		e.q = pqueue.NewHeap[entry](lessEntry)
	} else {
		e.q.Reset()
	}
	q := e.q
	e.results = e.results[:0]
	if e.reuse {
		out = e.out[:0]
		defer func() { e.out = out[:0] }()
	}

	// Seed with the shortest path of the whole space.
	endInitial := e.spans.Start(obs.PhaseInitial, 0)
	first, ok := e.init, e.haveInit
	if !e.haveInit {
		var status SearchStatus
		first, status = e.compSP(0)
		ok = status == Found
	}
	endInitial(first.Total)
	if !ok {
		return out, e.bound.Err()
	}
	q.Push(entry{vertex: 0, key: first.Total, res: e.storeResult(first)})
	e.trace(Event{Kind: EventEnqueue, Vertex: 0, Node: e.pt.Node(0), Length: first.Total})

	round := 0
	for len(out) < e.k && q.Len() > 0 {
		if err := e.bound.Step(); err != nil {
			return out, err
		}
		if q.Top().res >= 0 {
			if stop := e.emitAndDivide(q, q.Pop(), &out); stop {
				if err := e.bound.Err(); err != nil && len(out) < e.k {
					return out, err
				}
				break
			}
			continue
		}

		// Unresolved round: tighten the popped entry's bound (IterBound) or
		// solve it exactly (BestFirst).
		round++
		endRound := e.spans.Start(obs.PhaseRound, round)
		ent := q.Pop()
		var top graph.Weight
		haveTop := q.Len() > 0
		if haveTop {
			top = q.Top().key
		}
		tau := e.nextTau(ent.key, top, haveTop)
		if e.tree != nil {
			e.tree.growTo(tau)
		}
		res, status := e.ws.subspaceSearch(e.sp, e.pt, ent.vertex, e.h, tau, e.tree, e.stats)
		e.trace(Event{Kind: EventResolve, Vertex: ent.vertex, Node: e.pt.Node(ent.vertex),
			Length: res.Total, Tau: tau, Status: status})
		endRound(1)
		switch status {
		case Found:
			q.Push(entry{vertex: ent.vertex, key: res.Total, res: e.storeResult(res)})
		case Exceeded:
			if e.stats != nil {
				e.stats.TauRounds++
			}
			q.Push(entry{vertex: ent.vertex, key: tau, res: -1})
		case Empty:
			// drop: the subspace holds no path
		case Aborted:
			return out, e.bound.Err()
		}
	}
	// A bound that tripped inside a helper (SPT growth, CompLB) without an
	// Aborted search still truncates the result.
	if len(out) < e.k {
		if err := e.bound.Err(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// emitAndDivide outputs the resolved entry's path and divides its subspace
// (Alg. 2 lines 6-10), enqueueing the deviation vertex and the new suffix
// vertices with CompLB lower bounds — or, eager, with their exact lengths
// (see divideExact). It reports whether the main loop must stop (k paths
// emitted, or the bound tripped during a lower-bound computation or an
// eager search).
func (e *engine) emitAndDivide(q *pqueue.Heap[entry], ent entry, out *[]Path) (stop bool) {
	res := &e.results[ent.res]
	e.pathBuf = e.pt.AppendPrefixPath(e.pathBuf[:0], ent.vertex)
	e.pathBuf = append(e.pathBuf, res.Suffix...)
	var nodes []graph.NodeID
	if e.reuse {
		nodes = e.sp.materializeInto(e.ws.nodeArena.take(len(e.pathBuf)), e.pathBuf)
	} else {
		// Copying mode's one allocation per returned path; what else a
		// query may allocate is capped by TestCopyingModeAllocs.
		nodes = e.sp.materializeInto(make([]graph.NodeID, 0, len(e.pathBuf)), e.pathBuf)
	}
	*out = append(*out, Path{Nodes: nodes, Length: res.Total})
	e.trace(Event{Kind: EventEmit, Vertex: ent.vertex, Node: e.pt.Node(ent.vertex), Length: res.Total})
	if len(*out) == e.k {
		return true
	}
	phase := obs.PhaseDivide
	if e.eager {
		phase = obs.PhaseResolve // Alg. 1 resolves at division time
	}
	endDivide := e.spans.Start(phase, len(*out))
	nsuffix := VertexID(len(res.Suffix))
	firstNew := e.pt.InsertSuffix(ent.vertex, res.Suffix, res.Lens)

	// New subspaces: the deviation vertex itself (its X grew) and every
	// suffix vertex except the goal (whose subspace is empty).
	e.cands = e.cands[:0]
	if e.pt.Node(ent.vertex) != e.sp.Goal {
		e.cands = append(e.cands, ent.vertex)
	}
	for v := firstNew; v < firstNew+nsuffix; v++ {
		if e.pt.Node(v) != e.sp.Goal {
			e.cands = append(e.cands, v)
		}
	}
	if e.eager {
		endDivide(e.divideExact(q, e.cands))
		return e.bound.Err() != nil
	}
	cands := e.cands
	if cap(e.lbs) < len(cands) {
		e.lbs = make([]graph.Weight, len(cands))
	}
	lbs := e.lbs[:len(cands)]
	e.ws.chainLBs(e.sp, e.pt, cands, lbs, e.h, e.tree, e.stats)
	for i, v := range cands {
		lb := lbs[i]
		if lb >= graph.Infinity {
			e.trace(Event{Kind: EventDrop, Vertex: v, Node: e.pt.Node(v), Length: lb})
			continue // provably empty subspace
		}
		if lb < res.Total {
			lb = res.Total // Alg. 2 line 9: floor at ω(P)
		}
		q.Push(entry{vertex: v, key: lb, res: -1})
		e.trace(Event{Kind: EventEnqueue, Vertex: v, Node: e.pt.Node(v), Length: lb})
	}
	endDivide(int64(len(cands)))
	// CompLB returns 0 (a valid lower bound) when a bound trips inside it;
	// stop before acting on the degraded values' enqueues.
	return e.bound.Err() != nil
}

// divideExact is the eager division of Alg. 1: each new subspace is
// resolved exactly (τ = ∞, so τ never enters and no SPT_I restricts the
// search) and enqueued keyed by its shortest path length; an empty one is
// dropped. It returns the number of subspaces enqueued.
func (e *engine) divideExact(q *pqueue.Heap[entry], cands []VertexID) (resolved int64) {
	for _, v := range cands {
		res, status := e.compSP(v)
		e.trace(Event{Kind: EventResolve, Vertex: v, Node: e.pt.Node(v),
			Length: res.Total, Tau: graph.Infinity, Status: status})
		if status == Found {
			q.Push(entry{vertex: v, key: res.Total, res: e.storeResult(res)})
			e.trace(Event{Kind: EventEnqueue, Vertex: v, Node: e.pt.Node(v), Length: res.Total})
			resolved++
		}
	}
	return resolved
}

// compSP computes the exact shortest path of v's subspace (CompSP),
// answering from DA-SPT's full tree by the Pascoal shortcut when the
// concatenation is simple. A shortcut hit counts as a LowerBounds unit: it
// replaces a search by a constant-time candidate.
func (e *engine) compSP(v VertexID) (searchResult, SearchStatus) {
	if e.full != nil {
		if res, ok := e.ws.pascoal(e.full, e.sp, e.pt, v); ok {
			if e.stats != nil {
				e.stats.LowerBounds++
			}
			return res, Found
		}
	}
	return e.ws.subspaceSearch(e.sp, e.pt, v, e.h, graph.Infinity, e.tree, e.stats)
}
