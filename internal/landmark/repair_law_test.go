package landmark

import (
	"fmt"
	"math/rand"
	"testing"

	"kpj/internal/gen"
	"kpj/internal/graph"
)

// The tests in this file hold Repair to the checkRepairLaw law on the
// inputs a road network is too kind to produce: dense ties and
// zero-weight cycles, regions that become unreachable and come back,
// rows holding the far32 sentinel, decreases inside the region an
// increase invalidated, and long chains repaired from repaired indexes.

// tieGrid builds a w×h grid digraph (both directions of every grid edge,
// weighted independently) with weights drawn from {0, 1, 2}: almost every
// node has several tight in-edges, and zero-weight cycles are common.
func tieGrid(t *testing.T, rng *rand.Rand, w, h int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(w * h)
	id := func(x, y int) graph.NodeID { return graph.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y), graph.Weight(rng.Intn(3)))
				b.AddEdge(id(x+1, y), id(x, y), graph.Weight(rng.Intn(3)))
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1), graph.Weight(rng.Intn(3)))
				b.AddEdge(id(x, y+1), id(x, y), graph.Weight(rng.Intn(3)))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustBuild(t *testing.T, g *graph.Graph, landmarks ...graph.NodeID) *Index {
	t.Helper()
	ix, err := BuildWithLandmarks(g, landmarks)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestRepairLawTies: random multi-op deltas on {0,1,2}-weighted grids,
// each followed through a chain of 20 repairs of the repaired index.
func TestRepairLawTies(t *testing.T) {
	for _, par := range []int{1, 4} {
		for seed := int64(0); seed < 12; seed++ {
			t.Run(fmt.Sprintf("par%d/seed%d", par, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				g := tieGrid(t, rng, 5+rng.Intn(4), 5+rng.Intn(4))
				n := g.NumNodes()
				ix := mustBuild(t, g, 0, graph.NodeID(n-1), graph.NodeID(rng.Intn(n)))
				settled := 0
				for step := 0; step < 20; step++ {
					d := randomDeltaWeights(rng, ix.Graph(), func() graph.Weight { return graph.Weight(rng.Intn(3)) })
					var stats RepairStats
					ix, stats = checkRepairLaw(t, ix, d, par)
					settled += stats.Settled
				}
				if settled == 0 {
					t.Fatal("20 deltas on a tie grid settled nothing: the dynamic path was never exercised")
				}
			})
		}
	}
}

// TestRepairLawChainRandomDigraph: the same 20-step chain on sparse
// random digraphs, where parts of the graph are unreachable from (or
// cannot reach) a landmark to begin with.
func TestRepairLawChainRandomDigraph(t *testing.T) {
	for _, par := range []int{1, 4} {
		for seed := int64(0); seed < 12; seed++ {
			t.Run(fmt.Sprintf("par%d/seed%d", par, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				g := randomDigraph(t, rng, 20+rng.Intn(20))
				n := g.NumNodes()
				ix := mustBuild(t, g, graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
				for step := 0; step < 20; step++ {
					ix, _ = checkRepairLaw(t, ix, randomDelta(rng, ix.Graph()), par)
				}
			})
		}
	}
}

// TestRepairLawDisconnectReconnect: two rings joined by one edge each
// way. Deleting the joins strands the far ring (unreach32 in both table
// directions); inserting new joins elsewhere brings it back.
func TestRepairLawDisconnectReconnect(t *testing.T) {
	const ring = 6
	b := graph.NewBuilder(2 * ring)
	for i := 0; i < ring; i++ {
		b.AddBiEdge(graph.NodeID(i), graph.NodeID((i+1)%ring), graph.Weight(1+i%2))
		b.AddBiEdge(graph.NodeID(ring+i), graph.NodeID(ring+(i+1)%ring), graph.Weight(1+i%3))
	}
	b.AddEdge(2, ring+1, 3).AddEdge(ring+4, 5, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		ix := mustBuild(t, g, 0, ring+3)
		cut := &graph.Delta{Deletes: []graph.EdgeRef{{U: 2, V: ring + 1}, {U: ring + 4, V: 5}}}
		ix, stats := checkRepairLaw(t, ix, cut, par)
		if stats.Repaired() != 4 {
			t.Fatalf("cutting both joins must damage all 4 tables: %+v", stats)
		}
		for v := graph.NodeID(0); v < ring; v++ {
			far := v + ring
			if entry(ix, graph.Forward, 0, far) != unreach32 || entry(ix, graph.Backward, 0, far) != unreach32 ||
				entry(ix, graph.Forward, 1, v) != unreach32 || entry(ix, graph.Backward, 1, v) != unreach32 {
				t.Fatalf("nodes %d/%d still reachable across the cut", v, far)
			}
		}
		// Changes inside a stranded ring touch only its own landmark.
		ix, stats = checkRepairLaw(t, ix, &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: ring, V: ring + 1, W: 9}}}, par)
		if stats.Repaired() > 2 {
			t.Fatalf("a reweight in the stranded ring damaged landmark 0's tables: %+v", stats)
		}
		join := &graph.Delta{Inserts: []graph.EdgeUpdate{{U: 4, V: ring, W: 7}, {U: ring + 2, V: 1, W: 0}}}
		ix, stats = checkRepairLaw(t, ix, join, par)
		if stats.Repaired() != 4 {
			t.Fatalf("rejoining must damage all 4 tables: %+v", stats)
		}
		for v := 0; v < 2*ring; v++ {
			if entry(ix, graph.Forward, 0, graph.NodeID(v)) == unreach32 || entry(ix, graph.Backward, 1, graph.NodeID(v)) == unreach32 {
				t.Fatalf("node %d still unreachable after rejoining", v)
			}
		}
	}
}

// TestRepairLawFar32: a line whose edges weigh 2³⁰, so every distance
// past the second such hop is stored as far32, plus a short side branch
// 0–8–9. A change next to far32 entries must take the per-table
// fallback; a change on the side branch never reads one and must not.
func TestRepairLawFar32(t *testing.T) {
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
	old := mustBuild(t, g, 0)
	if entry(old, graph.Forward, 0, 3) >= far32 || entry(old, graph.Forward, 0, 4) != far32 || entry(old, graph.Forward, 0, 7) != far32 {
		t.Fatal("fixture does not hold far32 where expected")
	}
	repairsInexactly := func(d *graph.Delta) bool {
		ng, eff, err := graph.Apply(g, d)
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, ok := repairRow(&repairScratch{}, old, ng, 0, eff.Changes)
		return !ok
	}
	for _, par := range []int{1, 4} {
		// (2,3) is tight and the closure under it runs into far32 entries.
		up := &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: 2, V: 3, W: big + 1}}}
		if !repairsInexactly(up) {
			t.Fatal("increase above far32 entries did not fall back")
		}
		_, stats := checkRepairLaw(t, old, up, par)
		if stats.FwdRepaired != 1 || stats.Settled < g.NumNodes() {
			t.Fatalf("fallback table should count a full Dijkstra's settles: %+v", stats)
		}
		// A shortcut whose relaxation wave reaches far32 entries.
		down := &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: 2, V: 3, W: 1}}}
		if !repairsInexactly(down) {
			t.Fatal("decrease reaching far32 entries did not fall back")
		}
		checkRepairLaw(t, old, down, par)
		// New labels at or past far32 cannot be stored exactly either.
		ins := &graph.Delta{Deletes: []graph.EdgeRef{{U: 1, V: 2}}, Inserts: []graph.EdgeUpdate{{U: 0, V: 2, W: 2*big - 1}}}
		if !repairsInexactly(ins) {
			t.Fatal("label beyond int32 did not fall back")
		}
		checkRepairLaw(t, old, ins, par)
		// Far from the sentinel entries the dynamic path runs to the end.
		near := &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: 8, V: 9, W: 6}}}
		if repairsInexactly(near) {
			t.Fatal("repair that reads no far32 entry fell back")
		}
		_, stats = checkRepairLaw(t, old, near, par)
		if stats.FwdRepaired != 1 || stats.Settled >= g.NumNodes() {
			t.Fatalf("dynamic repair next to far32 rows: %+v", stats)
		}
	}
}

// TestRepairLawDecreaseInsideMarkedRegion: one delta both lengthens a
// tight edge and shortens an edge whose tail hangs under it, so step 3
// seeds from a label that step 2 has only just rebuilt.
func TestRepairLawDecreaseInsideMarkedRegion(t *testing.T) {
	// 0 →1→ 1 →1→ 2 →1→ 3 →10→ 4, with detours 0 →50→ 2 and 0 →far→ 4.
	for _, detour := range []graph.Weight{20, 200} {
		b := graph.NewBuilder(5)
		b.AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(2, 3, 1).AddEdge(3, 4, 10).AddEdge(0, 2, 50).AddEdge(0, 4, detour)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		d := &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: 0, V: 1, W: 100}, {U: 3, V: 4, W: 1}}}
		ix, _ := checkRepairLaw(t, mustBuild(t, g, 0), d, 1)
		want := []int32{0, 100, 50, 51, 52}
		if detour < 52 {
			want[4] = int32(detour)
		}
		for v, w := range want {
			if got := entry(ix, graph.Forward, 0, graph.NodeID(v)); got != w {
				t.Fatalf("detour %d: δ(0,%d) = %d, want %d", detour, v, got, w)
			}
		}
	}

	// The same shape found in a road network: lengthen a shortest-path
	// edge out of the landmark's neighbourhood and shorten an edge a few
	// tight hops below it.
	g, err := gen.Road(gen.RoadConfig{Width: 30, Height: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	old := mustBuild(t, g, 0, 899, 450)
	tightChild := func(u graph.NodeID) (graph.NodeID, bool) {
		for _, e := range g.Out(u) {
			if graph.Weight(entry(old, graph.Forward, 0, u))+e.W == graph.Weight(entry(old, graph.Forward, 0, e.To)) {
				return e.To, true
			}
		}
		return 0, false
	}
	for _, par := range []int{1, 4} {
		rng := rand.New(rand.NewSource(int64(par)))
		for cases := 0; cases < 30; {
			a := graph.NodeID(rng.Intn(g.NumNodes()))
			b, ok := tightChild(a)
			if !ok {
				continue
			}
			x := b
			for hops := 1 + rng.Intn(4); hops > 0; hops-- {
				if next, ok := tightChild(x); ok {
					x = next
				}
			}
			out := g.Out(x)
			y := out[rng.Intn(len(out))].To
			wab, _ := g.HasEdge(a, b)
			d := &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: a, V: b, W: wab + 500}, {U: x, V: y, W: 1}}}
			checkRepairLaw(t, old, d, par)
			cases++
		}
	}
}

// repairChain repairs ix through the given number of chained deltas,
// each drawn by next from the current graph, checks the final index
// against a from-scratch build on the final graph, and returns every
// step's stats.
func repairChain(t *testing.T, ix *Index, steps int, next func(i int, g *graph.Graph) *graph.Delta) []RepairStats {
	t.Helper()
	var out []RepairStats
	for i := 0; i < steps; i++ {
		ng, eff, err := graph.Apply(ix.Graph(), next(i, ix.Graph()))
		if err != nil {
			t.Fatal(err)
		}
		repaired, _, stats, err := Repair(ng, ix, eff.Changes)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, stats)
		ix = repaired
	}
	rebuilt, err := BuildWithLandmarks(ix.Graph(), ix.landmarks)
	if err != nil {
		t.Fatal(err)
	}
	if ix.TablesChecksum() != rebuilt.TablesChecksum() || ix.Fingerprint() != rebuilt.Fingerprint() {
		t.Fatalf("chain of %d repairs differs from a rebuild on the final graph", steps)
	}
	return out
}

// checkSettledShare fails unless the nodes settled over a repair chain
// are at most pct % of what recomputing every repaired table of n nodes
// by full Dijkstra would settle.
func checkSettledShare(t *testing.T, steps []RepairStats, n, pct int) {
	t.Helper()
	settled, repaired := 0, 0
	for _, s := range steps {
		settled += s.Settled
		repaired += s.Repaired()
	}
	t.Logf("%d tables repaired, %d nodes settled (%.2f%% of %d×%d)", repaired, settled, 100*float64(settled)/float64(repaired*n), repaired, n)
	if repaired == 0 {
		t.Fatal("no delta damaged a table")
	}
	if settled*100 > pct*repaired*n {
		t.Fatalf("settled %d nodes over %d repaired tables of %d nodes: more than %d%% of full Dijkstras", settled, repaired, n, pct)
	}
}

// roadIndex builds the 16-landmark index over a 100×100 road network
// with kpjgen's nested categories, so churn can draw POI operations.
func roadIndex(t *testing.T) *Index {
	t.Helper()
	g, err := gen.Road(gen.RoadConfig{Width: 100, Height: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.AddNestedCategories(g, 2); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestRepairSettledFollowsDirtyRegion gates the point of dynamic repair
// as a count: over 50 chained single-edge reweights of a 100×100 road
// network (half heavier, half lighter), the nodes settled are at most 5%
// of what recomputing each damaged table would settle.
func TestRepairSettledFollowsDirtyRegion(t *testing.T) {
	ix := roadIndex(t)
	rng := rand.New(rand.NewSource(42))
	steps := repairChain(t, ix, 50, func(i int, g *graph.Graph) *graph.Delta {
		return &graph.Delta{SetWeights: []graph.EdgeUpdate{randomReweight(rng, g, i%2 == 0)}}
	})
	checkSettledShare(t, steps, ix.Graph().NumNodes(), 5)
}

// TestRepairWideDamageStaysDynamic holds the same count on the deltas
// that damage most tables: 20 chained 8-op churn deltas (the shape of
// kpjload's live-churn workload), each damaging more than half of the 32
// tables, settle at most 10% of what recomputing those tables would.
func TestRepairWideDamageStaysDynamic(t *testing.T) {
	ix := roadIndex(t)
	deltas, _, err := gen.Churn(ix.Graph(), gen.ChurnConfig{Steps: 20, Ops: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	steps := repairChain(t, ix, len(deltas), func(i int, _ *graph.Graph) *graph.Delta { return deltas[i] })
	for i, s := range steps {
		if s.Repaired() <= s.Landmarks {
			t.Fatalf("delta %d damaged %d of %d tables, want more than half: %+v", i, s.Repaired(), 2*s.Landmarks, s)
		}
	}
	checkSettledShare(t, steps, ix.Graph().NumNodes(), 10)
}
