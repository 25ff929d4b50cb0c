package core

import (
	"fmt"
	"math/rand"
	"reflect"
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
		tree := ws.initSPTI(rev, revH, true, nil, nil)
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
		tree := ws.initSPTI(fwd, growH, true, nil, nil)
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
	tree := NewWorkspace(fwd.numSpaceNodes()).initSPTI(fwd, CategoryHeuristic{Space: fwd, Bounds: ix.BoundsToSet(targets)}, true, nil, nil)
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

// far32Chain is internal/landmark's TestRepairLawFar32 fixture: a line
// 2–3–…–7 whose edges weigh 2³⁰, so landmark distances past its second
// hop exceed int32 and are stored as the inexact far32 sentinel, plus the
// short branch 1–0–8–9. Its maximum weight is exactly
// pqueue.MaxBucketEdgeWeight, so trees over it grow on the bucket queue.
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
	if !bucketed(g) {
		t.Fatal("far32 chain must select the bucket queue")
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

// treeState is a tree's settled set with its distances.
func treeState(tr *sptiTree) map[graph.NodeID]graph.Weight {
	m := map[graph.NodeID]graph.Weight{}
	for v := graph.NodeID(0); int(v) < tr.sp.numSpaceNodes(); v++ {
		if tr.t.Settled(v) {
			m[v] = tr.t.Dist(v)
		}
	}
	return m
}

// TestGrowthQueueIndependent is the tree counterpart of internal/sssp's
// bucket identity test: after phase one and after every growTo(τ), a tree
// grown on the bucket queue has settled exactly the nodes, at exactly the
// distances, of the same tree grown on the heap — forward (SPT_I) and
// reverse (SPT_P), with and without an index. Phase one must settle the
// goal's key-ties for this to hold; the two queues pop ties in different
// orders.
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
		bucketCases := growthCases(in.g, in.ix, in.sources, in.targets)
		heapCases := growthCases(in.g, in.ix, in.sources, in.targets)
		for j := range bucketCases {
			b, h := bucketCases[j], heapCases[j]
			name := fmt.Sprintf("case %d %s", i, b.name)
			bt := NewWorkspace(b.sp.numSpaceNodes()).initSPTI(b.sp, b.h, true, nil, nil)
			ht := NewWorkspace(h.sp.numSpaceNodes()).initSPTI(h.sp, h.h, false, nil, nil)
			bres, bok := bt.initialPath()
			hres, hok := ht.initialPath()
			if bok != hok || bres.Total != hres.Total {
				t.Fatalf("%s: phase one found (%v, %d) on the bucket queue, (%v, %d) on the heap",
					name, bok, bres.Total, hok, hres.Total)
			}
			if !bok {
				continue
			}
			if bs, hs := treeState(bt), treeState(ht); !reflect.DeepEqual(bs, hs) {
				t.Fatalf("%s: after phase one the bucket tree settled %v, the heap tree %v", name, bs, hs)
			}
			for _, tau := range []graph.Weight{bres.Total + 1, bres.Total * 3 / 2, bres.Total * 3, graph.Infinity - 1} {
				bt.growTo(tau)
				ht.growTo(tau)
				if bs, hs := treeState(bt), treeState(ht); !reflect.DeepEqual(bs, hs) {
					t.Fatalf("%s τ=%d: the bucket tree settled %v, the heap tree %v", name, tau, bs, hs)
				}
				if bt.exhausted() != ht.exhausted() {
					t.Fatalf("%s τ=%d: exhausted %v on the bucket queue, %v on the heap", name, tau, bt.exhausted(), ht.exhausted())
				}
			}
			if !bt.exhausted() {
				t.Fatalf("%s: tree not exhausted after unbounded growth", name)
			}
		}
	}
}
