package core

import (
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
		exactFrom := sssp.Dijkstra(g, graph.Forward, src).Dist
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
	spt.setDist(0, 7, -1)
	spt.settle(0)
	spt.setDist(1, 99, -1) // reached but not settled: still fallback
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
	exact := sssp.Dijkstra(g, graph.Forward, src).Dist
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if got := h.H(v); got > exact[v] {
			t.Fatalf("TreeHeuristic.H(%d) = %d > δ(s,v) = %d", v, got, exact[v])
		}
	}
}
