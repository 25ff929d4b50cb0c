package core

import (
	"kpj/internal/graph"
	"kpj/internal/pqueue"
)

// Heuristic supplies admissible lower bounds on the remaining distance from
// a space node to the space goal. Implementations must guarantee:
//
//   - H(v) ≤ the true shortest remaining distance (admissibility), and
//   - H(v) == graph.Infinity only when the goal is provably unreachable
//     from v.
//
// Heuristics need not be consistent: the restricted search re-expands nodes
// when a shorter arrival is found, so admissibility alone is sufficient for
// correctness (TreeHeuristic mixes exact and landmark estimates, which is
// admissible but not consistent).
type Heuristic interface {
	H(v graph.NodeID) graph.Weight
}

// Workspace holds the reusable per-query scratch state for subspace
// searches: tentative distances, parents, heuristic caches, ban marks, the
// search queues, SPT scratch, the pseudo-tree, the engine with its batch
// buffers, cached heuristic boxes, and the result arenas — all epoch-
// stamped or capacity-retaining so that a steady-state query on a warm
// workspace performs zero heap allocations. A Workspace is sized for one
// space-node-id range and is not safe for concurrent use.
type Workspace struct {
	n int

	dist   []graph.Weight
	parent []graph.NodeID
	dstamp []uint32
	depoch uint32

	hval   []graph.Weight
	hstamp []uint32
	hepoch uint32

	ban      []uint32
	banEpoch uint32

	q *pqueue.NodeQueue

	// bound is the current query's interruption state, installed by
	// prepare (nil for unbounded queries and direct test use).
	bound *Bound

	// rev is chain-reversal scratch for path reconstruction.
	rev []graph.NodeID

	// spt is the shared shortest-path-tree scratch (SPT_P, SPT_I, and
	// DA-SPT's full tree — at most one per query); spti drives the first two.
	spt  SPT
	spti sptiTree

	// fwdSp/revSp are the cached query spaces; fwdStamp/revStamp their
	// epoch-stamped goal-membership arrays (shared memberEpoch, bumped per
	// query), replacing the per-query O(|targets|) map builds.
	fwdSp, revSp       Space
	fwdStamp, revStamp []uint32
	memberEpoch        uint32

	// Cached heuristic boxes: returning &ws.catH etc. converts a pointer
	// into the Heuristic interface, which never allocates, where boxing the
	// struct value would.
	catH  CategoryHeuristic
	srcH  SourceHeuristic
	setH  SourceSetHeuristic
	treeH TreeHeuristic

	pt  pseudoTree
	eng engine

	// nodeArena/lenArena back the searchResult suffixes and (with
	// Options.ReuseResults) the emitted path node slices for the current
	// query; both reset per query.
	nodeArena arena[graph.NodeID]
	lenArena  arena[graph.Weight]

	reuseResults bool
}

// NewWorkspace returns a Workspace for space-node ids in [0, n).
// A query on graph g needs n = g.NumNodes() + 2 (the two virtual nodes).
func NewWorkspace(n int) *Workspace {
	return &Workspace{
		n:           n,
		dist:        make([]graph.Weight, n),
		parent:      make([]graph.NodeID, n),
		dstamp:      make([]uint32, n),
		depoch:      1,
		hval:        make([]graph.Weight, n),
		hstamp:      make([]uint32, n),
		hepoch:      1,
		ban:         make([]uint32, n),
		banEpoch:    1,
		q:           pqueue.NewNodeQueue(n),
		fwdStamp:    make([]uint32, n),
		revStamp:    make([]uint32, n),
		memberEpoch: 1,
	}
}

// Fits reports whether the workspace covers space-node ids in [0, n).
func (ws *Workspace) Fits(n int) bool { return ws.n >= n }

// DetachBound clears the installed bound. Pools call it before recycling
// a workspace so a stale query's context or budget can never leak into
// the next query that draws the workspace.
func (ws *Workspace) DetachBound() { ws.bound = nil }

func bumpEpoch(epoch *uint32, stamps []uint32) {
	*epoch++
	if *epoch == 0 {
		for i := range stamps {
			stamps[i] = 0
		}
		*epoch = 1
	}
}

// beginQuery opens a fresh per-query scope: result arenas rewind and the
// goal-membership epoch advances. prepare calls it for the query's main
// workspace and newPool for every worker workspace, so any searchResult or
// (with reuse) Path handed out by the previous query on this workspace is
// invalidated here.
func (ws *Workspace) beginQuery(reuse bool) {
	ws.reuseResults = reuse
	ws.nodeArena.reset()
	ws.lenArena.reset()
	ws.memberEpoch++
	if ws.memberEpoch == 0 {
		for i := range ws.fwdStamp {
			ws.fwdStamp[i] = 0
			ws.revStamp[i] = 0
		}
		ws.memberEpoch = 1
	}
}

// forwardSpace rebuilds the workspace-cached forward space for a query
// (goal membership is re-stamped, not reallocated). The returned Space is
// valid until the workspace's next query.
func (ws *Workspace) forwardSpace(g *graph.Graph, sources, targets []graph.NodeID) *Space {
	ws.fwdSp.initForward(g, sources, targets, ws.fwdStamp, ws.memberEpoch)
	return &ws.fwdSp
}

// reverseSpace is forwardSpace for the reverse space of IterBound-SPT_I /
// SPT_P / DA-SPT.
func (ws *Workspace) reverseSpace(g *graph.Graph, sources, targets []graph.NodeID) *Space {
	ws.revSp.initReverse(g, sources, targets, ws.revStamp, ws.memberEpoch)
	return &ws.revSp
}

// resetTree returns the workspace-owned pseudo-tree re-rooted for a new
// query; its arena storage is retained across queries.
func (ws *Workspace) resetTree(root graph.NodeID) *pseudoTree {
	ws.pt.Reset(root)
	return &ws.pt
}

// cachedTreeHeuristic boxes a TreeHeuristic in workspace storage so the
// interface conversion does not allocate.
func (ws *Workspace) cachedTreeHeuristic(t *SPT, fallback Heuristic) Heuristic {
	ws.treeH = TreeHeuristic{T: t, Fallback: fallback}
	return &ws.treeH
}

// engine returns the workspace-cached engine with all per-query
// configuration cleared and the retained scratch (queue, batch buffers,
// result store) carried over.
func (ws *Workspace) engine() *engine {
	e := &ws.eng
	*e = engine{
		q: e.q, jobs: e.jobs, results: e.results,
		cands: e.cands, lbs: e.lbs, pathBuf: e.pathBuf, out: e.out,
	}
	e.ws = ws
	return e
}

// beginSearch starts a fresh distance/heuristic scope.
func (ws *Workspace) beginSearch() {
	bumpEpoch(&ws.depoch, ws.dstamp)
	bumpEpoch(&ws.hepoch, ws.hstamp)
	ws.q.Reset()
}

// beginBans starts a fresh ban scope.
func (ws *Workspace) beginBans() {
	bumpEpoch(&ws.banEpoch, ws.ban)
}

func (ws *Workspace) banNode(v graph.NodeID)       { ws.ban[v] = ws.banEpoch }
func (ws *Workspace) isBanned(v graph.NodeID) bool { return ws.ban[v] == ws.banEpoch }

func (ws *Workspace) distOf(v graph.NodeID) graph.Weight {
	if ws.dstamp[v] != ws.depoch {
		return graph.Infinity
	}
	return ws.dist[v]
}

func (ws *Workspace) setDist(v graph.NodeID, d graph.Weight, p graph.NodeID) {
	ws.dist[v] = d
	ws.parent[v] = p
	ws.dstamp[v] = ws.depoch
}

// hOf memoizes h(v) for the duration of the current search scope.
func (ws *Workspace) hOf(h Heuristic, v graph.NodeID) graph.Weight {
	if ws.hstamp[v] == ws.hepoch {
		return ws.hval[v]
	}
	val := h.H(v)
	ws.hval[v] = val
	ws.hstamp[v] = ws.hepoch
	return val
}
