package graph_test

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"kpj/internal/gen"
	"kpj/internal/graph"
	"kpj/internal/sssp"
)

// These are the laws of the patched CSR: Apply materializes a delta by
// sharing, copying and merging its parent's arrays, so everything here
// compares against a Builder rebuild of an independently maintained edge
// list, and against the parent generation's own memory.

type edgeModel map[[2]graph.NodeID]graph.Weight

func modelOf(g *graph.Graph) edgeModel {
	m := edgeModel{}
	for u := 0; u < g.NumNodes(); u++ {
		for _, e := range g.Out(graph.NodeID(u)) {
			m[[2]graph.NodeID{graph.NodeID(u), e.To}] = e.W
		}
	}
	return m
}

// apply mirrors Apply's field order on the edge list.
func (m edgeModel) apply(d *graph.Delta) {
	for _, e := range d.SetWeights {
		m[[2]graph.NodeID{e.U, e.V}] = e.W
	}
	for _, e := range d.Inserts {
		m[[2]graph.NodeID{e.U, e.V}] = e.W
	}
	for _, e := range d.Deletes {
		delete(m, [2]graph.NodeID{e.U, e.V})
	}
}

// checkRebuildEqual asserts that got's CSR arrays and maximum weight are
// exactly what a Builder produces for the model's edge list, and that the
// verified-read path accepts them.
func checkRebuildEqual(t *testing.T, step int, got *graph.Graph, m edgeModel) {
	t.Helper()
	b := graph.NewBuilder(got.NumNodes())
	for k, w := range m {
		b.AddEdge(k[0], k[1], w)
	}
	want, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	goh, goa, gih, gia := got.CSR()
	woh, woa, wih, wia := want.CSR()
	if !slices.Equal(goh, woh) || !slices.Equal(goa, woa) || !slices.Equal(gih, wih) || !slices.Equal(gia, wia) {
		t.Fatalf("step %d: CSR arrays differ from a rebuild", step)
	}
	if got.NumEdges() != want.NumEdges() || got.MaxEdgeWeight() != want.MaxEdgeWeight() {
		t.Fatalf("step %d: %d edges max %d, rebuild has %d edges max %d",
			step, got.NumEdges(), got.MaxEdgeWeight(), want.NumEdges(), want.MaxEdgeWeight())
	}
	if _, err := graph.FromCSR(got.NumNodes(), goh, goa, gih, gia, got.MaxEdgeWeight()); err != nil {
		t.Fatalf("step %d: FromCSR rejects the patched arrays: %v", step, err)
	}
}

func TestApplyEquivalentToRebuild(t *testing.T) {
	// One delta touching about half the rows of a small dense graph.
	t.Run("dense", func(t *testing.T) {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 6 + rng.Intn(6)
			b := graph.NewBuilder(n)
			for i := 0; i < 3*n; i++ {
				if u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)); u != v {
					b.AddEdge(u, v, graph.Weight(1+rng.Intn(50)))
				}
			}
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			d := denseDelta(rng, g, 4)
			ng, _, err := graph.Apply(g, d)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			m := modelOf(g)
			m.apply(d)
			checkRebuildEqual(t, int(seed), ng, m)
		}
	})

	// A 200-generation chain on a road network, each generation patched
	// from the previous one: whatever a patch gets wrong, later patches
	// build on.
	t.Run("chain", func(t *testing.T) {
		cur := roadGraph(t, 40)
		n := graph.NodeID(cur.NumNodes())
		m := modelOf(cur)
		rng := rand.New(rand.NewSource(7))
		var removed []graph.EdgeUpdate // deleted by kind 6, re-inserted by kind 7
		for step := 0; step < 200; step++ {
			d := &graph.Delta{}
			switch step % 10 {
			case 0: // the live-churn workload's delta
				ds, _, err := gen.Churn(cur, gen.ChurnConfig{Steps: 1, Ops: 8, Seed: int64(step)})
				if err != nil {
					t.Fatal(err)
				}
				d = ds[0]
			case 1: // heavier
				u, e := randomEdge(rng, cur)
				d.SetWeights = []graph.EdgeUpdate{{U: u, V: e.To, W: e.W + 1 + rng.Int63n(50)}}
			case 2: // lighter
				u, e := randomEdge(rng, cur)
				d.SetWeights = []graph.EdgeUpdate{{U: u, V: e.To, W: e.W / 2}}
			case 3: // to zero
				u, e := randomEdge(rng, cur)
				d.SetWeights = []graph.EdgeUpdate{{U: u, V: e.To, W: 0}}
			case 4: // a new, unique heaviest edge
				u, e := randomEdge(rng, cur)
				d.SetWeights = []graph.EdgeUpdate{{U: u, V: e.To, W: cur.MaxEdgeWeight() + 1 + rng.Int63n(50)}}
			case 5: // the unique heaviest edge made lighter: maxW must be rescanned
				u, e := heaviestEdge(cur)
				d.SetWeights = []graph.EdgeUpdate{{U: u, V: e.To, W: 1}}
			case 6: // deletes that empty an out-row and an in-row
				x, y := graph.NodeID(rng.Intn(int(n))), graph.NodeID(rng.Intn(int(n)))
				for _, e := range cur.Out(x) {
					removed = append(removed, graph.EdgeUpdate{U: x, V: e.To, W: e.W})
				}
				for _, e := range cur.In(y) {
					if e.To != x {
						removed = append(removed, graph.EdgeUpdate{U: e.To, V: y, W: e.W})
					}
				}
				for _, e := range removed {
					d.Deletes = append(d.Deletes, graph.EdgeRef{U: e.U, V: e.V})
				}
			case 7: // re-inserted at new weights, into the rows just emptied
				for _, e := range removed {
					d.Inserts = append(d.Inserts, graph.EdgeUpdate{U: e.U, V: e.V, W: e.W + 3})
				}
				removed = removed[:0]
			case 8: // the first and last rows of both directions, plus ops that cancel
				for _, k := range [][2]graph.NodeID{{0, n / 2}, {n - 1, n / 3}, {n / 4, 0}, {n / 5, n - 1}} {
					if _, ok := cur.HasEdge(k[0], k[1]); ok {
						d.Deletes = append(d.Deletes, graph.EdgeRef{U: k[0], V: k[1]})
					} else {
						d.Inserts = append(d.Inserts, graph.EdgeUpdate{U: k[0], V: k[1], W: 1 + rng.Int63n(300)})
					}
				}
				u, e := randomEdge(rng, cur)
				d.SetWeights = []graph.EdgeUpdate{{U: u, V: e.To, W: e.W + 9}, {U: u, V: e.To, W: e.W}}
				if _, ok := cur.HasEdge(n/2, n/2+7); !ok {
					d.Inserts = append(d.Inserts, graph.EdgeUpdate{U: n / 2, V: n/2 + 7, W: 5})
					d.Deletes = append(d.Deletes, graph.EdgeRef{U: n / 2, V: n/2 + 7})
				}
			case 9: // many rows at once
				d = denseDelta(rng, cur, 16)
			}
			next, _, err := graph.Apply(cur, d)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			m.apply(d)
			checkRebuildEqual(t, step, next, m)
			cur = next
		}
	})
}

// denseDelta reweights or deletes about two in every `one` edges of g
// and inserts a few absent ones.
func denseDelta(rng *rand.Rand, g *graph.Graph, one int) *graph.Delta {
	d := &graph.Delta{}
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		for _, e := range g.Out(graph.NodeID(u)) {
			switch rng.Intn(one) {
			case 0:
				d.SetWeights = append(d.SetWeights, graph.EdgeUpdate{U: graph.NodeID(u), V: e.To, W: 1 + rng.Int63n(50)})
			case 1:
				d.Deletes = append(d.Deletes, graph.EdgeRef{U: graph.NodeID(u), V: e.To})
			}
		}
	}
	for tries := 0; tries < 4; tries++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if _, ok := g.HasEdge(u, v); ok || u == v || slices.ContainsFunc(d.Inserts, func(e graph.EdgeUpdate) bool { return e.U == u && e.V == v }) {
			continue
		}
		d.Inserts = append(d.Inserts, graph.EdgeUpdate{U: u, V: v, W: 1 + rng.Int63n(50)})
	}
	return d
}

func heaviestEdge(g *graph.Graph) (graph.NodeID, graph.Edge) {
	for u := 0; ; u++ {
		for _, e := range g.Out(graph.NodeID(u)) {
			if e.W == g.MaxEdgeWeight() {
				return graph.NodeID(u), e
			}
		}
	}
}

// csrSnapshot is a deep copy of a generation's four arrays.
type csrSnapshot struct {
	outHead, inHead []int32
	outAdj, inAdj   []graph.Edge
}

func snapshotCSR(g *graph.Graph) csrSnapshot {
	oh, oa, ih, ia := g.CSR()
	return csrSnapshot{slices.Clone(oh), slices.Clone(ih), slices.Clone(oa), slices.Clone(ia)}
}

func (s csrSnapshot) check(t *testing.T, what string, g *graph.Graph) {
	t.Helper()
	oh, oa, ih, ia := g.CSR()
	if !slices.Equal(s.outHead, oh) || !slices.Equal(s.outAdj, oa) || !slices.Equal(s.inHead, ih) || !slices.Equal(s.inAdj, ia) {
		t.Fatalf("%s: a derived generation wrote into its ancestor's arrays", what)
	}
}

func sameArray[T any](a, b []T) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestApplyCopyOnWrite pins what generations own and what they share:
// sharing is the point of the patch, and it is safe only as long as no
// Apply ever writes through a shared slice.
func TestApplyCopyOnWrite(t *testing.T) {
	parent := roadGraph(t, 40)
	rng := rand.New(rand.NewSource(3))
	parentSnap := snapshotCSR(parent)
	poh, poa, pih, pia := parent.CSR()

	u, e := randomEdge(rng, parent)
	child, _, err := graph.Apply(parent, &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: u, V: e.To, W: e.W + 5}}})
	if err != nil {
		t.Fatal(err)
	}
	parentSnap.check(t, "reweight", parent)
	coh, coa, cih, cia := child.CSR()
	if !sameArray(poh, coh) || !sameArray(pih, cih) {
		t.Fatal("a reweight-only child must share both head arrays with its parent")
	}
	if sameArray(poa, coa) || sameArray(pia, cia) {
		t.Fatal("a reweight-only child must own both adjacency arrays")
	}

	childSnap := snapshotCSR(child)
	ds, _, err := gen.Churn(child, gen.ChurnConfig{Steps: 1, Ops: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds[0].Inserts)+len(ds[0].Deletes) == 0 {
		t.Fatal("churn delta has no structural op")
	}
	grandchild, _, err := graph.Apply(child, ds[0])
	if err != nil {
		t.Fatal(err)
	}
	parentSnap.check(t, "structural, grandparent", parent)
	childSnap.check(t, "structural, parent", child)
	goh, goa, gih, gia := grandchild.CSR()
	if sameArray(coh, goh) || sameArray(cih, gih) || sameArray(coa, goa) || sameArray(cia, gia) {
		t.Fatal("a structural child must share no array with its parent")
	}

	// No net edge change: nothing to own.
	same, _, err := graph.Apply(grandchild, &graph.Delta{AddPOIs: []graph.POIUpdate{{Category: "new", Node: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	soh, soa, sih, sia := same.CSR()
	if !sameArray(goh, soh) || !sameArray(goa, soa) || !sameArray(gih, sih) || !sameArray(gia, sia) {
		t.Fatal("a delta without edge changes must share all four arrays")
	}
}

// TestApplyAllocsFollowDelta is the machine-independent cost pin: the
// allocation count of an Apply depends on the delta, not on the graph.
func TestApplyAllocsFollowDelta(t *testing.T) {
	var reweight, churn [2]float64
	for i, side := range []int{40, 80} {
		g := roadGraph(t, side)
		u, e := randomEdge(rand.New(rand.NewSource(1)), g)
		one := &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: u, V: e.To, W: e.W + 7}}}
		// Built by hand so that both graphs get the same operation mix.
		a, b := graph.NodeID(side), graph.NodeID(2*side)
		eight := &graph.Delta{
			Inserts:    []graph.EdgeUpdate{{U: 0, V: b + 5, W: 9}, {U: a + 1, V: 3, W: 9}},
			AddPOIs:    []graph.POIUpdate{{Category: "T1", Node: absentFrom(t, g, "T1")}},
			RemovePOIs: []graph.POIUpdate{{Category: "T4", Node: memberOf(t, g, "T4")}},
		}
		for _, x := range []graph.NodeID{1, a, b} {
			eight.SetWeights = append(eight.SetWeights, graph.EdgeUpdate{U: x, V: g.Out(x)[0].To, W: 1})
		}
		eight.Deletes = append(eight.Deletes, graph.EdgeRef{U: b + 1, V: g.Out(b + 1)[0].To})
		for _, d := range []*graph.Delta{one, eight} {
			if _, _, err := graph.Apply(g, d); err != nil {
				t.Fatal(err)
			}
		}
		reweight[i] = testing.AllocsPerRun(20, func() { graph.Apply(g, one) })
		churn[i] = testing.AllocsPerRun(20, func() { graph.Apply(g, eight) })
	}
	if reweight[0] != reweight[1] || reweight[0] > 16 {
		t.Errorf("single-edge reweight: %v allocs on 40×40, %v on 80×80; want equal and <= 16", reweight[0], reweight[1])
	}
	if churn[0] != churn[1] || churn[0] > 48 {
		t.Errorf("8-op delta: %v allocs on 40×40, %v on 80×80; want equal and <= 48", churn[0], churn[1])
	}
}

func memberOf(t *testing.T, g *graph.Graph, cat string) graph.NodeID {
	t.Helper()
	set, err := g.Category(cat)
	if err != nil {
		t.Fatal(err)
	}
	return set[0]
}

func absentFrom(t *testing.T, g *graph.Graph, cat string) graph.NodeID {
	t.Helper()
	for v := graph.NodeID(0); ; v++ {
		if !g.InCategory(cat, v) {
			return v
		}
	}
}

// TestApplyConcurrentWithReaders runs searches on a generation while Apply
// derives its successors. Generations share slices, so under -race this
// is the proof that readers and the patcher never touch the same memory.
func TestApplyConcurrentWithReaders(t *testing.T) {
	parent := roadGraph(t, 40)
	want := sssp.Dijkstra(parent, graph.Forward, 0)[parent.NumNodes()-1]
	rng := rand.New(rand.NewSource(11))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	read := func(g *graph.Graph, want graph.Weight) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
				src := graph.NodeID(0)
				dst := graph.NodeID(g.NumNodes() - 1)
				if dir == graph.Backward {
					src, dst = dst, src
				}
				if got := sssp.Dijkstra(g, dir, src)[dst]; got != want {
					t.Errorf("reader saw distance %d, want %d", got, want)
					return
				}
			}
		}
	}
	wg.Add(2)
	go read(parent, want)
	go read(parent, want)

	cur := parent
	for level := 0; level < 2; level++ { // a child by reweight, then a grandchild by delete
		for i := 0; i < 100; i++ {
			u, e := randomEdge(rng, cur)
			d := &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: u, V: e.To, W: e.W + 1}}}
			if level == 1 {
				d = &graph.Delta{Deletes: []graph.EdgeRef{{U: u, V: e.To}}}
			}
			next, _, err := graph.Apply(cur, d)
			if err != nil {
				t.Fatal(err)
			}
			if i == 99 {
				cur = next
			}
		}
		if level == 0 {
			wg.Add(1)
			go read(cur, sssp.Dijkstra(cur, graph.Forward, 0)[cur.NumNodes()-1])
		}
	}
	close(stop)
	wg.Wait()
}

// TestApplyRejectsAsymmetricCSR: FromCSR validates each adjacency side on
// its own, so a file with a valid checksum can still hand Apply an
// in-adjacency that does not mirror the out-adjacency; Apply must refuse
// to patch it, not write somewhere else.
func TestApplyRejectsAsymmetricCSR(t *testing.T) {
	good, err := graph.NewBuilder(3).AddEdge(0, 1, 4).AddEdge(1, 2, 4).Build()
	if err != nil {
		t.Fatal(err)
	}
	oh, oa, ih, _ := good.CSR()
	ia := []graph.Edge{{To: 2, W: 4}, {To: 1, W: 4}} // (0,1) recorded as coming from 2
	bad, err := graph.FromCSR(3, oh, oa, ih, ia, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*graph.Delta{
		{SetWeights: []graph.EdgeUpdate{{U: 0, V: 1, W: 9}}},
		{Deletes: []graph.EdgeRef{{U: 0, V: 1}}},
	} {
		if _, _, err := graph.Apply(bad, d); !errors.Is(err, graph.ErrBadCSR) {
			t.Fatalf("Apply over a one-sided edge: %v, want ErrBadCSR", err)
		}
	}
}
