// Package deviation implements the paper's baseline algorithms for KPJ
// processing (Section 3): DA, the classical Yen-style deviation algorithm
// applied to the query-transformed graph G_Q, and DA-SPT, the
// state-of-the-art variant of Gao et al. that builds a full shortest path
// tree toward the (virtual) target online and uses the Pascoal shortcut to
// obtain most candidate paths in constant time.
//
// Both algorithms eagerly compute a candidate (the subspace's shortest
// path) for every subspace the moment it is created — the O(k·n) shortest
// path computations whose cost the best-first paradigm of internal/core is
// designed to avoid. Those per-deviation-point computations are mutually
// independent, so with Options.Parallelism > 1 each emission's batch of
// new subspaces is resolved concurrently on a core.Pool; resolution order
// does not influence any candidate's path, so the output is identical at
// every parallelism level.
package deviation

import (
	"sync"

	"kpj/internal/core"
	"kpj/internal/fault"
	"kpj/internal/graph"
	"kpj/internal/obs"
	"kpj/internal/pqueue"
)

// candidate is one entry of the candidate set C (paper Alg. 1): the
// resolved shortest path of the subspace at a pseudo-tree vertex.
type candidate struct {
	vertex core.VertexID
	res    core.SearchResult
	seq    uint64
}

func lessCandidate(a, b candidate) bool {
	if a.res.Total != b.res.Total {
		return a.res.Total < b.res.Total
	}
	return a.seq < b.seq
}

// resolveFunc computes the shortest path of the subspace at v on the given
// workspace (ok=false when the subspace is empty or the bound tripped).
// The result depends only on the pseudo-tree state at call time, never on
// the workspace or on other in-flight resolutions, so a batch of calls may
// run concurrently on distinct workspaces.
type resolveFunc func(ws *core.Workspace, st *core.Stats, v core.VertexID) (core.SearchResult, bool)

// runScratch is the per-run loop state, pooled so repeated baseline
// queries reuse the candidate heap and batch buffers.
type runScratch struct {
	cand    *pqueue.Heap[candidate]
	jobs    []job
	batch   []core.VertexID
	pathBuf []graph.NodeID
}

type job struct {
	v   core.VertexID
	res core.SearchResult
	ok  bool
}

var scratchPool = sync.Pool{New: func() any {
	return &runScratch{cand: pqueue.NewHeap[candidate](lessCandidate)}
}}

// run is the deviation main loop shared by DA and DA-SPT: resolve is
// invoked once per subspace, immediately at creation. After each emission
// the newly created subspaces form an independent batch; with a pool they
// are resolved concurrently and pushed in deterministic (creation) order,
// with seq numbers assigned at push so the candidate heap is bit-identical
// to the sequential run's. trace, when non-nil, observes each step. When
// bound trips mid-run the loop stops and returns the paths emitted so far
// with the bound's error.
func run(sp *core.Space, pt *core.PseudoTree, k int, resolve resolveFunc,
	ws *core.Workspace, st *core.Stats, pool *core.Pool,
	trace core.TraceFunc, spans *obs.Spans, bound *core.Bound) ([]core.Path, error) {

	sc := scratchPool.Get().(*runScratch)
	defer scratchPool.Put(sc)
	cand := sc.cand
	cand.Reset()
	var seq uint64
	push := func(v core.VertexID, res core.SearchResult, ok bool) {
		if trace != nil {
			status := core.Found
			if !ok {
				status = core.Empty
			}
			trace(core.Event{Kind: core.EventResolve, Vertex: v, Node: pt.Node(v),
				Length: res.Total, Tau: graph.Infinity, Status: status})
		}
		if ok {
			seq++
			cand.Push(candidate{vertex: v, res: res, seq: seq})
		}
	}
	resolveRound := 0
	resolveBatch := func(vs []core.VertexID) {
		resolveRound++
		endResolve := spans.Start(obs.PhaseResolve, resolveRound)
		sc.jobs = sc.jobs[:0]
		for _, v := range vs {
			sc.jobs = append(sc.jobs, job{v: v})
		}
		jobs := sc.jobs
		if pool != nil && len(jobs) > 1 {
			pool.Run(len(jobs), func(i int, ws *core.Workspace, st *core.Stats) {
				jobs[i].res, jobs[i].ok = resolve(ws, st, jobs[i].v)
			})
		} else {
			for i := range jobs {
				jobs[i].res, jobs[i].ok = resolve(ws, st, jobs[i].v)
			}
		}
		resolved := int64(0)
		for i := range jobs {
			push(jobs[i].v, jobs[i].res, jobs[i].ok)
			if jobs[i].ok {
				resolved++
			}
		}
		endResolve(resolved)
	}

	sc.batch = append(sc.batch[:0], 0)
	resolveBatch(sc.batch)
	var out []core.Path
	for len(out) < k && cand.Len() > 0 {
		// Mid-resolve fault point, delivered through the bound so the
		// emitted prefix stays valid (same contract as the core engine).
		if ferr := fault.Hit(fault.SubspaceSearch); ferr != nil {
			if bound == nil {
				return out, ferr
			}
			bound.Inject(ferr)
		}
		if err := bound.Step(); err != nil {
			return out, err
		}
		top := cand.Pop()
		sc.pathBuf = pt.AppendPrefixPath(sc.pathBuf[:0], top.vertex)
		sc.pathBuf = append(sc.pathBuf, top.res.Suffix...)
		out = append(out, sp.Materialize(sc.pathBuf, top.res.Total))
		if trace != nil {
			trace(core.Event{Kind: core.EventEmit, Vertex: top.vertex, Node: pt.Node(top.vertex), Length: top.res.Total})
		}
		if len(out) == k {
			break
		}
		nsuffix := core.VertexID(len(top.res.Suffix))
		firstNew := pt.InsertSuffix(top.vertex, top.res.Suffix, top.res.Lens)
		sc.batch = append(sc.batch[:0], top.vertex)
		for v := firstNew; v < firstNew+nsuffix; v++ {
			if pt.Node(v) != sp.Goal {
				sc.batch = append(sc.batch, v)
			}
		}
		resolveBatch(sc.batch)
		// A resolve that aborted (bound tripped) was dropped from the
		// candidate heap, so emitting anything further would skip it; stop
		// immediately. Err consults the shared trip state directly, where
		// Step would coast on this goroutine's local allowance until its
		// next poll.
		if err := bound.Err(); err != nil {
			return out, err
		}
	}
	// A bound that tripped inside resolve (dropping candidates) still
	// truncates the result.
	if len(out) < k {
		if err := bound.Err(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// DA processes a query with the plain deviation algorithm (paper Alg. 1,
// [28]): every candidate path is computed by a restricted Dijkstra over
// G_Q. Options.Index and Options.Alpha are ignored — the baseline uses no
// lower-bound machinery.
func DA(g *graph.Graph, q core.Query, opt core.Options) ([]core.Path, error) {
	ws, err := core.Prepare(g, q, &opt, false)
	if err != nil {
		return nil, err
	}
	sp := ws.ForwardSpace(g, q.Sources, q.Targets)
	pt := ws.ResetTree(sp.Root)
	pool := opt.NewPool(sp.NumSpaceNodes())
	defer pool.Close()
	resolve := func(ws *core.Workspace, st *core.Stats, v core.VertexID) (core.SearchResult, bool) {
		res, status := ws.SubspaceSearch(sp, pt, v, core.ZeroHeuristic{}, graph.Infinity, nil, st)
		return res, status == core.Found
	}
	return run(sp, pt, q.K, resolve, ws, opt.Stats, pool, opt.Trace, opt.Spans, ws.Bound())
}

// DASPT processes a query with the DA-SPT baseline ([15], Section 3):
// a full shortest path tree toward the virtual target is built first
// (the dominating cost for short result paths, as the paper's Figs. 7(e)
// and 7(f) show), after which candidates are resolved by the Pascoal
// simple-concatenation test and, only when that fails, by an A* whose
// heuristic is the tree's exact remaining distance.
func DASPT(g *graph.Graph, q core.Query, opt core.Options) ([]core.Path, error) {
	ws, err := core.Prepare(g, q, &opt, false)
	if err != nil {
		return nil, err
	}
	sp := ws.ForwardSpace(g, q.Sources, q.Targets)
	rev := ws.ReverseSpace(g, q.Sources, q.Targets)
	endSPT := opt.Spans.Start(obs.PhaseSPTBuild, 0)
	spt, settled := ws.BuildFullSPT(rev, opt.Stats, ws.Bound())
	endSPT(int64(settled))
	pt := ws.ResetTree(sp.Root)
	pool := opt.NewPool(sp.NumSpaceNodes())
	defer pool.Close()
	h := ws.CachedTreeHeuristic(spt, core.ZeroHeuristic{})
	resolve := func(ws *core.Workspace, st *core.Stats, v core.VertexID) (core.SearchResult, bool) {
		if res, ok := pascoal(ws, spt, sp, pt, v); ok {
			if st != nil {
				st.LowerBounds++ // constant-time candidate
			}
			return res, true
		}
		res, status := ws.SubspaceSearch(sp, pt, v, h, graph.Infinity, nil, st)
		return res, status == core.Found
	}
	return run(sp, pt, q.K, resolve, ws, opt.Stats, pool, opt.Trace, opt.Spans, ws.Bound())
}

// Algorithms returns the two baselines under their paper names.
func Algorithms() map[string]core.Func {
	return map[string]core.Func{
		"DA":     DA,
		"DA-SPT": DASPT,
	}
}
