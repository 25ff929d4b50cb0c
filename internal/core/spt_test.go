package core

import (
	"fmt"
	"math/rand"
	"testing"

	"kpj/internal/graph"
	"kpj/internal/landmark"
	"kpj/internal/sssp"
	"kpj/internal/testgraphs"
)

// Prop. 5.1: every node settled into SPT_P — the tree's phase one on the
// reverse space — carries its exact shortest distance to the destination
// category.
func TestPartialSPTExactDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(60)
		g := testgraphs.RandomConnected(rng, n, 2*n, 20)
		targets := testgraphs.RandomCategory(rng, g, "T", 1+rng.Intn(4))
		src := graph.NodeID(rng.Intn(n))
		rev := NewReverseSpace(g, []graph.NodeID{src}, targets)

		var revH Heuristic
		if trial%2 == 0 {
			ix, err := landmark.Build(g, 2, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			revH = SourceHeuristic{Space: rev, Index: ix, Source: src}
		}
		ws := NewWorkspace(rev.numSpaceNodes())
		tree := ws.initSPTI(rev, revH, nil, nil)
		init, ok := tree.initialPath()
		if !ok {
			t.Fatalf("trial %d: no path in connected graph", trial)
		}
		exact := sssp.DistancesToSet(g, targets)
		for v := graph.NodeID(0); int(v) < n; v++ {
			if tree.t.Settled(v) && tree.t.Dist(v) != exact[v] {
				t.Fatalf("trial %d: SPT_P dt[%d] = %d, want %d", trial, v, tree.t.Dist(v), exact[v])
			}
		}
		// The initial path it hands back is the true shortest one, and
		// phase one stops as soon as the goal (the source) settles.
		wantFirst := exact[src]
		if init.Total != wantFirst {
			t.Fatalf("trial %d: initial path length %d, want %d", trial, init.Total, wantFirst)
		}
		for v := graph.NodeID(0); int(v) < n; v++ {
			if tree.t.Settled(v) && exact[v] > wantFirst {
				t.Fatalf("trial %d: SPT_P settled %d at distance %d beyond the goal's %d", trial, v, exact[v], wantFirst)
			}
		}
		// Suffix cumulative lengths end at the total.
		if init.Lens[len(init.Lens)-1] != init.Total {
			t.Fatalf("trial %d: suffix lens %v do not end at total %d", trial, init.Lens, init.Total)
		}
	}
}

// Prop. 5.2: after growTo(τ), SPT_I contains every node on any
// source→category path of length ≤ τ — equivalently every settled node has
// its exact forward distance and every node with ds(v)+δ(v,T) ≤ τ is
// settled.
func TestIncrementalSPTCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(60)
		g := testgraphs.RandomConnected(rng, n, 2*n, 20)
		targets := testgraphs.RandomCategory(rng, g, "T", 1+rng.Intn(4))
		src := graph.NodeID(rng.Intn(n))
		fwd := NewForwardSpace(g, []graph.NodeID{src}, targets)

		var growH Heuristic = zeroHeuristic{}
		if trial%2 == 0 {
			ix, err := landmark.Build(g, 2, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			growH = CategoryHeuristic{Space: fwd, Bounds: ix.BoundsToSet(targets)}
		}
		ws := NewWorkspace(fwd.numSpaceNodes())
		tree := ws.initSPTI(fwd, growH, nil, nil)
		init, ok := tree.initialPath()
		if !ok {
			t.Fatalf("trial %d: no initial path", trial)
		}
		exactFrom := sssp.Dijkstra(g, graph.Forward, src)
		exactTo := sssp.DistancesToSet(g, targets)
		if init.Total != exactTo[src] {
			t.Fatalf("trial %d: initial length %d, want %d", trial, init.Total, exactTo[src])
		}
		for _, tau := range []graph.Weight{init.Total, init.Total * 2, init.Total * 4} {
			tree.growTo(tau)
			for v := 0; v < n; v++ {
				id := graph.NodeID(v)
				if tree.t.Settled(id) && tree.t.Dist(id) != exactFrom[id] {
					t.Fatalf("trial %d τ=%d: ds[%d] = %d, want %d", trial, tau, v, tree.t.Dist(id), exactFrom[id])
				}
				if exactFrom[id]+exactTo[id] <= tau && !tree.t.Settled(id) {
					t.Fatalf("trial %d τ=%d: node %d on a ≤τ path but not in SPT_I (ds=%d toT=%d)",
						trial, tau, v, exactFrom[id], exactTo[id])
				}
			}
		}
		// Exhaustion: growing to infinity settles everything reachable,
		// after which the pruner's exclusions become definitive.
		tree.growTo(graph.Infinity - 1)
		if !tree.exhausted() {
			t.Fatalf("trial %d: tree not exhausted after unbounded growth", trial)
		}
		if ok, _ := tree.Allow(src); !ok {
			t.Fatalf("trial %d: source excluded from SPT_I", trial)
		}
	}
}

// TreeHeuristic must prefer exact tree distances and fall back elsewhere.
func TestTreeHeuristicOverlay(t *testing.T) {
	var spt SPT
	spt.begin(6)
	spt.dist[0], spt.reach[0] = 7, spt.epoch
	spt.settle(0)
	spt.dist[1], spt.reach[1] = 99, spt.epoch // reached but not settled: still fallback
	h := TreeHeuristic{T: &spt, Fallback: zeroHeuristic{}}
	if h.H(0) != 7 {
		t.Fatalf("H(0) = %d, want 7 (tree)", h.H(0))
	}
	if h.H(1) != 0 {
		t.Fatalf("H(1) = %d, want 0 (fallback)", h.H(1))
	}
	if h.H(5) != 0 { // never touched by the tree: fallback
		t.Fatalf("H(5) = %d, want 0", h.H(5))
	}
	// A fresh epoch forgets all settled state without clearing arrays.
	spt.begin(6)
	if h.H(0) != 0 {
		t.Fatalf("H(0) after begin = %d, want 0 (stamps invalidated)", h.H(0))
	}
}

// The tree heuristic over SPT_I mixes exact in-tree distances with the
// landmark fallback and must never exceed the true distance from the
// source.
func TestSPTIHeuristicAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	g := testgraphs.RandomConnected(rng, 50, 150, 15)
	targets := testgraphs.RandomCategory(rng, g, "T", 3)
	src := graph.NodeID(4)
	fwd := NewForwardSpace(g, []graph.NodeID{src}, targets)
	rev := NewReverseSpace(g, []graph.NodeID{src}, targets)
	ix, err := landmark.Build(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := NewWorkspace(fwd.numSpaceNodes()).initSPTI(fwd, CategoryHeuristic{Space: fwd, Bounds: ix.BoundsToSet(targets)}, nil, nil)
	if _, ok := tree.initialPath(); !ok {
		t.Fatal("no initial path")
	}
	tree.growTo(1000)
	h := TreeHeuristic{T: tree.t, Fallback: SourceHeuristic{Space: rev, Index: ix, Source: src}}
	exact := sssp.Dijkstra(g, graph.Forward, src)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if got := h.H(v); got > exact[v] {
			t.Fatalf("TreeHeuristic.H(%d) = %d > δ(s,v) = %d", v, got, exact[v])
		}
	}
}

// far32Chain is internal/landmark's TestRepairLawFar32 fixture: a line
// 2–3–…–7 whose edges weigh 2³⁰, so landmark distances past its second
// hop exceed int32 and are stored as the inexact far32 sentinel, plus the
// short branch 1–0–8–9.
func far32Chain(t *testing.T) *graph.Graph {
	t.Helper()
	const big = graph.Weight(1) << 30
	b := graph.NewBuilder(10)
	b.AddBiEdge(0, 1, 5).AddBiEdge(1, 2, 7).AddBiEdge(0, 8, 3).AddBiEdge(8, 9, 4)
	for i := graph.NodeID(2); i < 7; i++ {
		b.AddBiEdge(i, i+1, big)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// growthCase is one tree a query grows: its space and the heuristic the
// query wiring (goalHeuristic) gives it.
type growthCase struct {
	name string
	sp   *Space
	h    Heuristic
}

// growthCases returns both trees of a query on g — SPT_I on the forward
// space, SPT_P on the reverse — with the growth heuristics a query with
// index ix (nil: none) builds. Each case gets its own workspace.
func growthCases(g *graph.Graph, ix *landmark.Index, sources, targets []graph.NodeID) []growthCase {
	q := Query{Sources: sources, Targets: targets, K: 1}
	opt := &Options{Index: ix}
	fwsp := NewWorkspace(g.NumNodes() + 2)
	rwsp := NewWorkspace(g.NumNodes() + 2)
	fwd := fwsp.forwardSpace(g, sources, targets)
	rev := rwsp.reverseSpace(g, sources, targets)
	return []growthCase{
		{"SPT_I", fwd, goalHeuristic(fwsp, fwd, q, opt)},
		{"SPT_P", rev, goalHeuristic(rwsp, rev, q, opt)},
	}
}

// checkConsistent fails unless h(u) ≤ w(u,v) + h(v) on every space edge
// between nodes with finite bounds (an infinite bound keeps a node out of
// the tree altogether): the property that makes growth keys monotone.
func checkConsistent(t *testing.T, name string, c growthCase) {
	t.Helper()
	for u := graph.NodeID(0); int(u) < c.sp.numSpaceNodes(); u++ {
		hu := c.h.H(u)
		if hu >= graph.Infinity {
			continue
		}
		c.sp.expand(u, func(v graph.NodeID, w graph.Weight) {
			if hv := c.h.H(v); hv < graph.Infinity && hu > w+hv {
				t.Fatalf("%s %s: h(%d) = %d > w(%d,%d) = %d + h(%d) = %d", name, c.name, u, hu, u, v, w, v, hv)
			}
		})
	}
}

// TestGrowthHeuristicsConsistent pins the consistency the bucket queue
// relies on, for every heuristic a tree grows under: the Eq. 2 category
// bound (SPT_I), the pairwise and source-set bounds (SPT_P), and zero.
// The far32 chain covers landmark terms next to inexact far32 entries:
// a term dropped at a far32 neighbour used to break consistency near 2³¹,
// which on the bucket queue would panic a growth.
func TestGrowthHeuristicsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(60)
		var g *graph.Graph
		if trial%2 == 0 {
			g = testgraphs.RandomConnected(rng, n, 2*n, 20)
		} else {
			g = testgraphs.Random(rng, n, 3, 30, false)
		}
		targets := testgraphs.RandomCategory(rng, g, "T", 1+rng.Intn(4))
		sources := []graph.NodeID{graph.NodeID(rng.Intn(n))}
		if trial%3 == 0 {
			sources = append(sources, graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		ix, err := landmark.Build(g, 1+rng.Intn(4), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("trial %d", trial)
		for _, idx := range []*landmark.Index{ix, nil} {
			for _, c := range growthCases(g, idx, sources, targets) {
				checkConsistent(t, name, c)
			}
		}
	}

	g := far32Chain(t)
	sets := [][]graph.NodeID{{0}, {1}, {2}, {3}, {4}, {7}, {9}, {0, 7}, {3, 9}, {2, 4, 6}}
	for _, lms := range [][]graph.NodeID{{0}, {7}, {9}, {3}, {0, 7}, {2, 5, 9}} {
		ix, err := landmark.BuildWithLandmarks(g, lms)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range sets {
			for _, dst := range sets {
				name := fmt.Sprintf("far32 landmarks %v %v→%v", lms, src, dst)
				for _, c := range growthCases(g, ix, src, dst) {
					checkConsistent(t, name, c)
				}
			}
		}
	}
}

// exactSpaceDist returns the exact distance of every node of sp from its
// root, by internal/sssp over the physical graph: a virtual root sits at
// 0, a virtual goal at its nearest member's distance, and a physical goal
// (the single source of a reverse space) is a sink, as Space.expand makes
// it, so the edges into it are dropped.
func exactSpaceDist(g *graph.Graph, sp *Space, sources, targets []graph.NodeID) []graph.Weight {
	if !sp.IsVirtual(sp.Goal) {
		b := graph.NewBuilder(g.NumNodes())
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			for _, e := range g.Out(u) {
				if e.To != sp.Goal {
					b.AddEdge(u, e.To, e.W)
				}
			}
		}
		var err error
		if g, err = b.Build(); err != nil {
			panic(err)
		}
	}
	var d []graph.Weight
	members := targets
	if sp.Dir == graph.Forward {
		d = sssp.Dijkstra(g, graph.Forward, sources...)
	} else {
		d, members = sssp.DistancesToSet(g, targets), sources
	}
	d = append(d, graph.Infinity, graph.Infinity)
	if sp.IsVirtual(sp.Root) {
		d[sp.Root] = 0
	}
	if sp.IsVirtual(sp.Goal) {
		for _, v := range members {
			d[sp.Goal] = min(d[sp.Goal], d[v])
		}
	}
	return d
}

// checkSettlesKeyBound fails unless tr has settled exactly its key bound
// tau: a reached node is settled iff its key dist + h is at most tau, every
// node whose exact key is at most tau is settled, and every settled
// distance is exact.
func checkSettlesKeyBound(t *testing.T, name string, tr *sptiTree, exact []graph.Weight, tau graph.Weight) {
	t.Helper()
	st := tr.t
	for v := graph.NodeID(0); int(v) < tr.sp.numSpaceNodes(); v++ {
		settled := st.Settled(v)
		if settled && st.Dist(v) != exact[v] {
			t.Fatalf("%s τ=%d: node %d settled at %d, exact %d", name, tau, v, st.Dist(v), exact[v])
		}
		if st.reach[v] == st.epoch && settled != (st.dist[v]+st.h[v] <= tau) {
			t.Fatalf("%s τ=%d: node %d at key %d+%d has settled=%v", name, tau, v, st.dist[v], st.h[v], settled)
		}
		if hv := hOrZero(tr.h, v); hv < graph.Infinity && exact[v]+hv <= tau && !settled {
			t.Fatalf("%s τ=%d: node %d at exact key %d+%d is not settled", name, tau, v, exact[v], hv)
		}
	}
}

// TestGrowthQueueIndependent pins what makes a tree independent of the
// order its queue pops equal keys in: each phase settles its whole key
// bound. After phase one (bound δ, the goal's key) and after every
// growTo(τ), the tree has settled exactly the nodes with key ≤ τ, at their
// exact distances — forward (SPT_I) and reverse (SPT_P), with and without
// an index, on tie-heavy graphs and on the far32 chain.
func TestGrowthQueueIndependent(t *testing.T) {
	type instance struct {
		g                *graph.Graph
		sources, targets []graph.NodeID
		ix               *landmark.Index
	}
	var cases []instance
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(80)
		var g *graph.Graph
		if trial%2 == 0 {
			g = testgraphs.RandomConnected(rng, n, 2*n, 6) // small weights: many key ties
		} else {
			g = testgraphs.Random(rng, n, 3, 25, false)
		}
		targets := testgraphs.RandomCategory(rng, g, "T", 1+rng.Intn(4))
		sources := []graph.NodeID{graph.NodeID(rng.Intn(n))}
		if trial%4 == 1 {
			sources = append(sources, graph.NodeID(rng.Intn(n)))
		}
		var ix *landmark.Index
		if trial%3 != 0 {
			var err error
			if ix, err = landmark.Build(g, 1+rng.Intn(3), int64(trial)); err != nil {
				t.Fatal(err)
			}
		}
		cases = append(cases, instance{g, sources, targets, ix})
	}
	far := far32Chain(t)
	farIx, err := landmark.BuildWithLandmarks(far, []graph.NodeID{0, 7})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		instance{far, []graph.NodeID{9}, []graph.NodeID{7}, farIx},
		instance{far, []graph.NodeID{6}, []graph.NodeID{0}, farIx},
		instance{far, []graph.NodeID{9}, []graph.NodeID{0}, farIx}) // grows 3 (h near 2³¹) before 4

	for i, in := range cases {
		for _, c := range growthCases(in.g, in.ix, in.sources, in.targets) {
			name := fmt.Sprintf("case %d %s", i, c.name)
			exact := exactSpaceDist(in.g, c.sp, in.sources, in.targets)
			tr := NewWorkspace(c.sp.numSpaceNodes()).initSPTI(c.sp, c.h, nil, nil)
			res, ok := tr.initialPath()
			if ok != (exact[c.sp.Goal] < graph.Infinity) || ok && res.Total != exact[c.sp.Goal] {
				t.Fatalf("%s: phase one found (%v, %d), exact distance %d", name, ok, res.Total, exact[c.sp.Goal])
			}
			if !ok {
				continue
			}
			checkSettlesKeyBound(t, name+" phase one", tr, exact, res.Total)
			for _, tau := range []graph.Weight{res.Total + 1, res.Total*3/2 + 1, res.Total*3 + 1, graph.Infinity - 1} {
				tr.growTo(tau)
				checkSettlesKeyBound(t, name, tr, exact, tau)
			}
			if !tr.exhausted() {
				t.Fatalf("%s: tree not exhausted after unbounded growth", name)
			}
		}
	}
}

// checkParentWalks fails unless every reached node's parent walk in tr
// ends at root within n steps.
func checkParentWalks(t *testing.T, name string, tr *SPT, root graph.NodeID, n int) {
	t.Helper()
	for v := graph.NodeID(0); int(v) < n; v++ {
		if tr.Dist(v) >= graph.Infinity {
			continue
		}
		u, steps := v, 0
		for ; tr.Parent(u) >= 0 && steps <= n; steps++ {
			u = tr.Parent(u)
		}
		if u != root {
			t.Fatalf("%s: the parent walk from %d stops at %d after %d steps, not at the root %d", name, v, u, steps, root)
		}
	}
}

// TestTreeParentWalksEndAtRoot: on 0→1, 0→2 (w 1), 1→9, 2→9 (w 5) and
// 1⇄2 (w 0), nodes 1 and 2 tie toward target 9 through each other. A tree
// that re-parents on equal distances points them at each other, and a
// parent walk — Pascoal's tree path in DA-SPT, phase one's first path —
// never ends. DA-SPT's full tree and both growth trees must stay trees.
func TestTreeParentWalksEndAtRoot(t *testing.T) {
	b := graph.NewBuilder(10)
	b.AddEdge(0, 1, 1).AddEdge(0, 2, 1).AddEdge(1, 9, 5).AddEdge(2, 9, 5).AddBiEdge(1, 2, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sources, targets := []graph.NodeID{0}, []graph.NodeID{9}
	ws := NewWorkspace(g.NumNodes() + 2)
	q := Query{Sources: sources, Targets: targets, K: 3}
	if _, err := Algorithms()["DA-SPT"](g, q, Options{Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	// The query leaves its full tree, over the reverse space, in ws.spt.
	rev := NewReverseSpace(g, sources, targets)
	checkParentWalks(t, "DA-SPT", &ws.spt, rev.Root, rev.numSpaceNodes())

	for _, c := range growthCases(g, nil, sources, targets) {
		tr := NewWorkspace(c.sp.numSpaceNodes()).initSPTI(c.sp, c.h, nil, nil)
		if _, ok := tr.initialPath(); !ok {
			t.Fatalf("%s: no first path", c.name)
		}
		tr.growTo(graph.Infinity)
		checkParentWalks(t, c.name, tr.t, c.sp.Root, c.sp.numSpaceNodes())
	}
}
