package core

import (
	"math"

	"kpj/internal/fault"
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
// id. The tie-break uses only schedule-independent state — vertex ids are
// assigned at emission time, never during resolution — which is what makes
// the emitted path sequence identical at every parallelism level: keys of
// unresolved entries are strict lower bounds of their subspace's shortest
// length, resolved keys are exact, so the emission order collapses to
// "sorted by (true length, vertex id)" no matter how resolution work was
// scheduled.
func lessEntry(a, b entry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.vertex < b.vertex
}

// resolveJob is one unresolved entry popped for (possibly speculative)
// resolution in the current round, with the τ computed for it at pop time.
type resolveJob struct {
	ent    entry
	tau    graph.Weight
	res    searchResult
	status SearchStatus
}

// minParallelLB is the smallest division fan-out worth dispatching CompLB
// calls to the pool; below it the coordination overhead dominates.
const minParallelLB = 3

// resolveBatch is the number of unresolved entries popped (speculatively)
// per resolution round. It is a fixed constant, NOT the worker count: the
// τ computed for each popped entry depends on what remains on the queue,
// so a batch size that varied with Options.Parallelism would give the
// searches different τs at different parallelism levels — and among
// equal-length shortest paths, which representative a τ-bounded search
// returns may depend on τ. Fixing the batch makes the whole resolution
// schedule a pure function of the query, so the emitted path sequence is
// bit-identical whether the batch runs inline (Parallelism <= 1) or
// fanned across any number of workers. Eight keeps 4-8 workers busy while
// bounding sequential speculation per round.
const resolveBatch = 8

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
	// and it is grown to τ before each resolution round so it covers the
	// ≤τ neighbourhood (Prop. 5.2).
	tree *sptiTree

	alpha float64 // >1: TestLB with growing τ; <=0: exact resolution (BestFirst)

	// eager resolves every new subspace exactly at division time instead
	// of enqueueing its CompLB lower bound: the deviation paradigm of
	// Alg. 1 (DA, DA-SPT).
	eager bool

	// full, when non-nil, is DA-SPT's complete shortest path tree toward
	// the goal; every exact search first tries the Pascoal shortcut on it.
	full *SPT

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
	bound *Bound

	// pool, when non-nil, fans the independent searches of one round (and
	// the CompLB calls at division time) across worker goroutines. The
	// nil pool is the sequential Parallelism<=1 case of the same loop.
	pool *Pool

	stats   *Stats
	onEvent TraceFunc

	// spans, when non-nil, records the phase timeline (bound iteration
	// N, division). Purely observational; nil costs one check.
	spans *obs.Spans

	// Retained scratch, reused across queries via the workspace cache.
	q       *pqueue.Heap[entry]
	jobs    []resolveJob
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
// With a pool, each iteration pops up to Workers unresolved entries and
// resolves them concurrently (τ fixed per entry at pop time, so the τ
// schedule is deterministic for a given worker count); their outcomes are
// merged back in pop order. Speculative resolution never changes the
// output: a Found result is the subspace's true shortest path regardless
// of τ or of SPT_I having grown past this entry's τ, and an Exceeded
// entry re-enters the queue keyed by a τ that is still a strict lower
// bound of its subspace's shortest length.
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
		first, status = e.compSP(e.ws, 0, e.stats)
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
		// The mid-resolve fault point: an injected error rides the bound's
		// sticky-error channel so the loop exits through the normal
		// truncation path with the prefix emitted so far.
		if ferr := fault.Hit(fault.SubspaceSearch); ferr != nil {
			if e.bound == nil {
				return out, ferr
			}
			e.bound.inject(ferr)
		}
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

		// Unresolved round: pop up to resolveBatch entries to tighten
		// (IterBound) or solve exactly (BestFirst). τ for each is
		// computed against the queue as seen at its pop, so the schedule
		// of bounds is a pure function of the query alone.
		round++
		endRound := e.spans.Start(obs.PhaseRound, round)
		e.jobs = append(e.jobs[:0], resolveJob{ent: q.Pop()})
		for len(e.jobs) < resolveBatch && q.Len() > 0 && q.Top().res < 0 {
			if err := e.bound.Step(); err != nil {
				endRound(int64(len(e.jobs)))
				return out, err
			}
			e.jobs = append(e.jobs, resolveJob{ent: q.Pop()})
		}
		jobs := e.jobs
		maxTau := graph.Weight(-1)
		for i := range jobs {
			var top graph.Weight
			haveTop := q.Len() > 0
			if haveTop {
				top = q.Top().key
			}
			jobs[i].tau = e.nextTau(jobs[i].ent.key, top, haveTop)
			if jobs[i].tau > maxTau {
				maxTau = jobs[i].tau
			}
		}
		if e.tree != nil {
			e.tree.growTo(maxTau)
		}
		if len(jobs) == 1 || e.pool == nil {
			for i := range jobs {
				j := &jobs[i]
				j.res, j.status = e.ws.subspaceSearch(e.sp, e.pt, j.ent.vertex, e.h, j.tau, e.tree, e.stats)
			}
		} else {
			e.pool.Run(len(jobs), func(i int, ws *Workspace, st *Stats) {
				j := &jobs[i]
				j.res, j.status = ws.subspaceSearch(e.sp, e.pt, j.ent.vertex, e.h, j.tau, e.tree, st)
			})
			// A worker panic (recovered by the pool) or injected fault may
			// have left jobs unexecuted with zero-valued statuses; stop on
			// the injected error before reading them. Sequential rounds
			// always run every job, so only the pooled path needs this.
			if err := e.bound.Err(); err != nil {
				endRound(int64(len(jobs)))
				return out, err
			}
		}
		for i := range jobs {
			j := &jobs[i]
			switch j.status {
			case Found:
				q.Push(entry{vertex: j.ent.vertex, key: j.res.Total, res: e.storeResult(j.res)})
			case Exceeded:
				if e.stats != nil {
					e.stats.TauRounds++
				}
				q.Push(entry{vertex: j.ent.vertex, key: j.tau, res: -1})
			case Empty:
				// drop: the subspace holds no path
			case Aborted:
				e.trace(Event{Kind: EventResolve, Vertex: j.ent.vertex, Node: e.pt.Node(j.ent.vertex),
					Tau: j.tau, Status: j.status})
				endRound(int64(len(jobs)))
				return out, e.bound.Err()
			}
			e.trace(Event{Kind: EventResolve, Vertex: j.ent.vertex, Node: e.pt.Node(j.ent.vertex),
				Length: j.res.Total, Tau: j.tau, Status: j.status})
		}
		endRound(int64(len(jobs)))
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
// (see divideExact). The CompLB calls are independent and fan out to the
// pool when the division is wide enough. It reports whether the main loop
// must stop (k paths emitted, or the bound tripped during a lower-bound
// computation or an eager search).
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
	if e.pool != nil && len(cands) >= minParallelLB {
		e.pool.Run(len(cands), func(i int, ws *Workspace, st *Stats) {
			lbs[i] = e.compLB(ws, cands[i], st)
		})
	} else {
		e.ws.chainLBs(e.sp, e.pt, cands, lbs, e.h, e.tree, e.stats)
	}
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
// dropped. The searches are independent and fan out to the pool. It
// returns the number of subspaces enqueued.
func (e *engine) divideExact(q *pqueue.Heap[entry], cands []VertexID) (resolved int64) {
	jobs := e.jobs[:0]
	for _, v := range cands {
		jobs = append(jobs, resolveJob{ent: entry{vertex: v}, tau: graph.Infinity})
	}
	e.jobs = jobs
	if e.pool != nil && len(jobs) > 1 {
		e.pool.Run(len(jobs), func(i int, ws *Workspace, st *Stats) {
			jobs[i].res, jobs[i].status = e.compSP(ws, jobs[i].ent.vertex, st)
		})
		// A panicked or fault-skipped task leaves a zero (Found) status
		// behind; stop before reading any.
		if e.bound.Err() != nil {
			return 0
		}
	} else {
		for i := range jobs {
			jobs[i].res, jobs[i].status = e.compSP(e.ws, jobs[i].ent.vertex, e.stats)
		}
	}
	for i := range jobs {
		j := &jobs[i]
		v := j.ent.vertex
		e.trace(Event{Kind: EventResolve, Vertex: v, Node: e.pt.Node(v),
			Length: j.res.Total, Tau: j.tau, Status: j.status})
		if j.status == Found {
			q.Push(entry{vertex: v, key: j.res.Total, res: e.storeResult(j.res)})
			e.trace(Event{Kind: EventEnqueue, Vertex: v, Node: e.pt.Node(v), Length: j.res.Total})
			resolved++
		}
	}
	return resolved
}

// compSP computes the exact shortest path of v's subspace on the given
// workspace (CompSP), answering from DA-SPT's full tree by the Pascoal
// shortcut when the concatenation is simple. A shortcut hit counts as a
// LowerBounds unit: it replaces a search by a constant-time candidate.
func (e *engine) compSP(ws *Workspace, v VertexID, st *Stats) (searchResult, SearchStatus) {
	if e.full != nil {
		if res, ok := ws.pascoal(e.full, e.sp, e.pt, v); ok {
			if st != nil {
				st.LowerBounds++
			}
			return res, Found
		}
	}
	return ws.subspaceSearch(e.sp, e.pt, v, e.h, graph.Infinity, e.tree, st)
}

// compLB computes the subspace lower bound for v on the given workspace
// (CompLB, with SPT_I's D-restriction at the virtual root: Alg. 8).
func (e *engine) compLB(ws *Workspace, v VertexID, st *Stats) graph.Weight {
	return ws.CompLB(e.sp, e.pt, v, e.h, e.tree, st)
}
