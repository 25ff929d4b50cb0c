package landmark

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"kpj/internal/graph"
)

// entry reads one table entry out of v's row: δ(w_i, v) for
// graph.Forward, δ(v, w_i) for graph.Backward.
func entry(ix *Index, dir graph.Direction, i int, v graph.NodeID) int32 {
	if dir == graph.Backward {
		i += len(ix.landmarks)
	}
	return ix.row(v)[i]
}

// randomDigraph builds a random sparse digraph for repair tests.
func randomDigraph(t *testing.T, rng *rand.Rand, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		deg := 1 + rng.Intn(3)
		for d := 0; d < deg; d++ {
			v := rng.Intn(n)
			if v != u {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v), graph.Weight(1+rng.Intn(40)))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomDelta derives a small valid delta over g with weights in 1..40.
func randomDelta(rng *rand.Rand, g *graph.Graph) *graph.Delta {
	return randomDeltaWeights(rng, g, func() graph.Weight { return graph.Weight(1 + rng.Intn(40)) })
}

// randomDeltaWeights is randomDelta with the caller's weight distribution.
func randomDeltaWeights(rng *rand.Rand, g *graph.Graph, weight func() graph.Weight) *graph.Delta {
	var d graph.Delta
	n := g.NumNodes()
	var present [][2]graph.NodeID
	for u := 0; u < n; u++ {
		for _, e := range g.Out(graph.NodeID(u)) {
			present = append(present, [2]graph.NodeID{graph.NodeID(u), e.To})
		}
	}
	ops := 1 + rng.Intn(5)
	for i := 0; i < ops && len(present) > 0; i++ {
		switch rng.Intn(3) {
		case 0: // weight change
			e := present[rng.Intn(len(present))]
			d.SetWeights = append(d.SetWeights, graph.EdgeUpdate{U: e[0], V: e[1], W: weight()})
		case 1: // delete (at most one, so the graph keeps most structure)
			if len(d.Deletes) == 0 {
				k := rng.Intn(len(present))
				e := present[k]
				already := false
				for _, s := range d.SetWeights {
					if s.U == e[0] && s.V == e[1] {
						already = true
					}
				}
				if !already {
					d.Deletes = append(d.Deletes, graph.EdgeRef{U: e[0], V: e[1]})
					present = append(present[:k], present[k+1:]...)
				}
			}
		default: // insert
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			if _, ok := g.HasEdge(u, v); ok {
				continue
			}
			dup := false
			for _, in := range d.Inserts {
				if in.U == u && in.V == v {
					dup = true
				}
			}
			if !dup {
				d.Inserts = append(d.Inserts, graph.EdgeUpdate{U: u, V: v, W: weight()})
			}
		}
	}
	return &d
}

// randomReweight draws an edge of g and a new weight for it: 1..50
// heavier (the traffic kpjload's update-reweight models) or halved.
func randomReweight(rng *rand.Rand, g *graph.Graph, heavier bool) graph.EdgeUpdate {
	for {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		out := g.Out(u)
		if len(out) == 0 {
			continue
		}
		e := out[rng.Intn(len(out))]
		w := e.W / 2
		if heavier {
			w = e.W + 1 + graph.Weight(rng.Intn(50))
		}
		return graph.EdgeUpdate{U: u, V: e.To, W: w}
	}
}

// withProcs runs fn with runtime.GOMAXPROCS set to procs, which bounds
// the package's job pool, and restores the old value.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// rebuildAt is BuildWithLandmarks run at GOMAXPROCS procs.
func rebuildAt(t *testing.T, procs int, g *graph.Graph, landmarks []graph.NodeID) *Index {
	t.Helper()
	var ix *Index
	var err error
	withProcs(procs, func() { ix, err = BuildWithLandmarks(g, landmarks) })
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// checkRepairLaw applies d to old's graph, repairs old at GOMAXPROCS par
// and holds the result to the Repair ≡ BuildWithLandmarks law, with the
// rebuild run at GOMAXPROCS 1 and 4: equal fingerprint and
// TablesChecksum, a dirty mask that is true exactly where some table
// entry changed, DirtyNodes equal to its population, and the old index
// left as it was.
func checkRepairLaw(t *testing.T, old *Index, d *graph.Delta, par int) (*Index, RepairStats) {
	t.Helper()
	g, before := old.Graph(), old.TablesChecksum()
	ng, eff, err := graph.Apply(g, d)
	if err != nil {
		t.Fatalf("apply %+v: %v", d, err)
	}
	var repaired *Index
	var dirty []bool
	var stats RepairStats
	withProcs(par, func() { repaired, dirty, stats, err = Repair(ng, old, eff.Changes) })
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	rebuilt := rebuildAt(t, 1, ng, old.landmarks)
	if wide := rebuildAt(t, 4, ng, old.landmarks); wide.Fingerprint() != rebuilt.Fingerprint() || wide.TablesChecksum() != rebuilt.TablesChecksum() {
		t.Fatal("rebuild at GOMAXPROCS 4 differs from the rebuild at 1")
	}
	if repaired.Fingerprint() != rebuilt.Fingerprint() {
		t.Fatalf("fingerprint %x vs rebuild %x", repaired.Fingerprint(), rebuilt.Fingerprint())
	}
	if repaired.TablesChecksum() != rebuilt.TablesChecksum() {
		t.Fatalf("tables differ from full rebuild (stats %+v, changes %+v)", stats, eff.Changes)
	}
	wantDirty := 0
	for v := range dirty {
		changed := false
		for i := range old.landmarks {
			if entry(old, graph.Forward, i, graph.NodeID(v)) != entry(rebuilt, graph.Forward, i, graph.NodeID(v)) ||
				entry(old, graph.Backward, i, graph.NodeID(v)) != entry(rebuilt, graph.Backward, i, graph.NodeID(v)) {
				changed = true
			}
		}
		if changed != dirty[v] {
			t.Fatalf("node %d: entry changed = %v, dirty = %v (stats %+v, changes %+v)", v, changed, dirty[v], stats, eff.Changes)
		}
		if changed {
			wantDirty++
		}
	}
	if stats.DirtyNodes != wantDirty {
		t.Fatalf("DirtyNodes %d, mask has %d", stats.DirtyNodes, wantDirty)
	}
	if old.Graph() != g || old.TablesChecksum() != before {
		t.Fatal("repair modified the old index")
	}
	if repaired.Graph() != ng {
		t.Fatal("repaired index not bound to the new graph")
	}
	return repaired, stats
}

// TestRepairMatchesFullRebuild is the core soundness property: after any
// delta, the incrementally repaired index must be row-for-row identical
// to a from-scratch BuildWithLandmarks over the new graph — including
// when the damage heuristic decided to recompute nothing.
func TestRepairMatchesFullRebuild(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomDigraph(t, rng, 8+rng.Intn(10))
		n := g.NumNodes()
		lmk := []graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n / 2))}
		old, err := BuildWithLandmarks(g, lmk)
		if err != nil {
			t.Fatal(err)
		}
		d, par := randomDelta(rng, g), 1+rng.Intn(4)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkRepairLaw(t, old, d, par) })
	}
}

// TestRepairNoDamageSharesRows pins the cheap path: a weight increase on
// an edge that lies on no shortest path repairs nothing and shares every
// row page with the old index.
func TestRepairNoDamageSharesRows(t *testing.T) {
	// 0 -1-> 1 -1-> 2, plus a heavy direct edge 0 -10-> 2 that no
	// shortest path uses. Increasing the heavy edge damages nothing.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(0, 2, 10)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	old, err := BuildWithLandmarks(g, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	ng, eff, err := graph.Apply(g, &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: 0, V: 2, W: 20}}})
	if err != nil {
		t.Fatal(err)
	}
	repaired, dirty, stats, err := Repair(ng, old, eff.Changes)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Repaired() != 0 {
		t.Fatalf("expected zero repairs, got %+v", stats)
	}
	for p := range old.pages {
		if &repaired.pages[p][0] != &old.pages[p][0] {
			t.Fatalf("page %d was copied, not shared", p)
		}
	}
	for v, x := range dirty {
		if x {
			t.Fatalf("node %d dirty after no-op repair", v)
		}
	}
	if repaired.Graph() != ng {
		t.Fatal("repaired index not bound to the new graph")
	}
}

// TestRepairCopiesOnlyDirtyPages pins the copy-on-write merge: over 32
// chained single-edge reweights of a 100×100 road network with 16
// landmarks, each Repair shares every row page that holds no dirty node
// with the index it was derived from, by pointer, and allocates exactly
// one fresh page per 64-node block that holds one.
func TestRepairCopiesOnlyDirtyPages(t *testing.T) {
	ix := roadIndex(t)
	rng := rand.New(rand.NewSource(7))
	copied, tables := 0, 0
	for step := 0; step < 32; step++ {
		d := &graph.Delta{SetWeights: []graph.EdgeUpdate{randomReweight(rng, ix.Graph(), step%2 == 0)}}
		ng, eff, err := graph.Apply(ix.Graph(), d)
		if err != nil {
			t.Fatal(err)
		}
		repaired, dirty, stats, err := Repair(ng, ix, eff.Changes)
		if err != nil {
			t.Fatal(err)
		}
		dirtyPages := map[graph.NodeID]bool{}
		for v, x := range dirty {
			if x {
				dirtyPages[graph.NodeID(v)>>pageShift] = true
			}
		}
		fresh := 0
		for p := range ix.pages {
			shared := &repaired.pages[p][0] == &ix.pages[p][0]
			if !shared {
				fresh++
			}
			if shared == dirtyPages[graph.NodeID(p)] {
				t.Fatalf("step %d page %d: shared %v, holds a dirty node %v", step, p, shared, dirtyPages[graph.NodeID(p)])
			}
		}
		if fresh != len(dirtyPages) {
			t.Fatalf("step %d: %d fresh pages for %d dirty blocks", step, fresh, len(dirtyPages))
		}
		copied += fresh
		tables += stats.Repaired()
		ix = repaired
	}
	t.Logf("32 reweights: %d tables repaired, %d page copies (%d pages per index)", tables, copied, len(ix.pages))
}

// TestRepairDecreaseDamages pins the other direction: shortening an edge
// that creates a new shortcut recomputes the affected tables.
func TestRepairDecreaseDamages(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(0, 2, 10)
	g, _ := b.Build()
	old, err := BuildWithLandmarks(g, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	ng, eff, err := graph.Apply(g, &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: 0, V: 2, W: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	repaired, dirty, stats, err := Repair(ng, old, eff.Changes)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FwdRepaired != 1 {
		t.Fatalf("fwd table not repaired: %+v", stats)
	}
	if !dirty[2] {
		t.Fatal("node 2's distance changed but is not dirty")
	}
	if got := entry(repaired, graph.Forward, 0, 2); got != 1 {
		t.Fatalf("repaired δ(0,2) = %d, want 1", got)
	}
}

// TestRepairRejectsNodeCountChange guards the node-invariance contract.
func TestRepairRejectsNodeCountChange(t *testing.T) {
	g := mustLine(t, 4)
	other := mustLine(t, 5)
	old, err := BuildWithLandmarks(g, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Repair(other, old, nil); err == nil {
		t.Fatal("repair accepted a graph with a different node count")
	}
}

func mustLine(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddBiEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTablesChecksumDetectsChanges sanity-checks the deep checksum.
func TestTablesChecksumDetectsChanges(t *testing.T) {
	g := mustLine(t, 5)
	a, err := BuildWithLandmarks(g, []graph.NodeID{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := BuildWithLandmarks(g, []graph.NodeID{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.TablesChecksum() != b2.TablesChecksum() {
		t.Fatal("identical builds disagree")
	}
	c, err := BuildWithLandmarks(g, []graph.NodeID{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.TablesChecksum() == c.TablesChecksum() {
		t.Fatal("different landmark sets collide")
	}
	mut := a.row(2)
	mut[0]++
	defer func() { mut[0]-- }()
	if a.TablesChecksum() == b2.TablesChecksum() {
		t.Fatal("entry mutation not detected")
	}
}
