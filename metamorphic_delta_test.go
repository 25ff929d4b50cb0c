package kpj_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kpj"
	"kpj/internal/bruteforce"
	"kpj/internal/gen"
	"kpj/internal/graph"
)

// This file is the metamorphic churn suite for live updates: applying a
// delta schedule through Index.Apply (epoch chain: incremental landmark
// repair) must be observationally
// IDENTICAL to throwing everything away and rebuilding from scratch over
// the final graph — path for path, across every engine — and both must
// agree with exhaustive enumeration. The deltas come from the same seeded
// churn generator kpjgen -churn uses, so every failure replays from its
// case index.

// deltaCase is one (graph, delta-schedule, query) metamorphic case.
type deltaCase struct {
	name     string
	g        *kpj.Graph   // base graph, public view
	og       *graph.Graph // base graph, internal view (for the oracle)
	schedule []*kpj.Delta
	sources  []kpj.NodeID
	targets  []kpj.NodeID // nil = query the "poi" category instead
	k        int
}

// deltaCaseFor builds the i-th randomized churn case. Graph families
// rotate between road grids and sparse digraphs; every graph carries a
// "poi" category so schedules exercise POI membership drift, and odd
// cases query that category (so POI churn is observable), while even
// cases query explicit node sets.
func deltaCaseFor(t *testing.T, i int) deltaCase {
	rng := rand.New(rand.NewSource(int64(5000 + i)))
	c := deltaCase{name: fmt.Sprintf("churn%03d", i)}
	switch i % 2 {
	case 0: // road grid
		og, err := gen.Road(gen.RoadConfig{
			Width: 4 + i%3, Height: 4, Seed: int64(i),
			KeepFrac: 0.6 + 0.2*rng.Float64(),
		})
		if err != nil {
			t.Fatalf("gen.Road: %v", err)
		}
		c.g, c.og = parseBoth(t, og.NumNodes(), edgesOf(og))
	default: // sparse digraph
		n := 12 + rng.Intn(8)
		var edges [][3]int64
		for u := 0; u < n; u++ {
			for d := 0; d < 2+rng.Intn(2); d++ {
				v := rng.Intn(n)
				if v != u {
					edges = append(edges, [3]int64{int64(u), int64(v), int64(1 + rng.Intn(30))})
				}
			}
		}
		c.g, c.og = parseBoth(t, n, edges)
	}
	n := c.og.NumNodes()
	poi := pickDistinct(rng, n, 3+rng.Intn(3))
	if err := c.g.AddCategory("poi", poi); err != nil {
		t.Fatal(err)
	}
	ogPoi := make([]graph.NodeID, len(poi))
	for j, v := range poi {
		ogPoi[j] = graph.NodeID(v)
	}
	if err := c.og.AddCategory("poi", ogPoi); err != nil {
		t.Fatal(err)
	}

	schedule, _, err := gen.Churn(c.og, gen.ChurnConfig{
		Steps: 2 + rng.Intn(3), Ops: 3 + rng.Intn(5), Seed: int64(9000 + i),
	})
	if err != nil {
		t.Fatalf("gen.Churn: %v", err)
	}
	c.schedule = schedule

	c.sources = pickDistinct(rng, n, 1+rng.Intn(2))
	if i%2 == 0 {
		c.targets = pickDistinct(rng, n, 2+rng.Intn(3))
	}
	c.k = 1 + rng.Intn(10)
	return c
}

// runChurnCase drives one case through both worlds and compares them.
func runChurnCase(t *testing.T, c deltaCase) {
	// World A: the live-update chain. One index built at epoch 0, then
	// Apply per delta (incremental repair).
	ix, err := kpj.BuildIndex(c.g, 3, 7)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	lmk := ix.Landmarks()
	curG, curOg := c.g, c.og
	for step, d := range c.schedule {
		app, err := ix.Apply(d)
		if err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}

		// Metamorphic law, index level: the incrementally repaired index
		// is entry-for-entry identical to a from-scratch build with the
		// same landmarks over the new graph.
		ref, err := kpj.BuildIndexWithLandmarks(app.Graph, lmk)
		if err != nil {
			t.Fatalf("step %d: reference build: %v", step, err)
		}
		if app.Index.TablesChecksum() != ref.TablesChecksum() {
			t.Fatalf("step %d: repaired index differs from full rebuild (stats %+v)", step, app.Stats)
		}

		// Advance the internal-view chain with the same delta.
		nextOg, _, err := graph.Apply(curOg, d)
		if err != nil {
			t.Fatalf("step %d: internal apply: %v", step, err)
		}
		curG, curOg, ix = app.Graph, nextOg, app.Index
	}

	// The applied chain and the internal chain agree on the final
	// category contents (POI drift went through both).
	gotPoi, err := curG.Category("poi")
	if err != nil {
		t.Fatal(err)
	}
	wantPoi, err := curOg.Category("poi")
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPoi) != len(wantPoi) {
		t.Fatalf("category drift: applied %v, internal %v", gotPoi, wantPoi)
	}
	for j := range gotPoi {
		if graph.NodeID(gotPoi[j]) != wantPoi[j] {
			t.Fatalf("category drift: applied %v, internal %v", gotPoi, wantPoi)
		}
	}

	targets := c.targets
	if targets == nil {
		targets = gotPoi
	}

	// World B: scorched earth. Rebuild the public graph from the final
	// edge list and the index from scratch with the same landmarks.
	scratchG, _ := parseBoth(t, curOg.NumNodes(), edgesOf(curOg))
	scratchIx, err := kpj.BuildIndexWithLandmarks(scratchG, lmk)
	if err != nil {
		t.Fatalf("scratch index: %v", err)
	}

	// Exhaustive oracle over the final graph.
	ogSources := make([]graph.NodeID, len(c.sources))
	for i, s := range c.sources {
		ogSources[i] = graph.NodeID(s)
	}
	ogTargets := make([]graph.NodeID, len(targets))
	for i, v := range targets {
		ogTargets[i] = graph.NodeID(v)
	}
	want := bruteforce.TopK(curOg, ogSources, ogTargets, c.k)

	oc := oracleCase{name: c.name, g: curG, og: curOg, sources: c.sources, targets: targets, k: c.k}
	for _, alg := range allAlgorithms {
		applied := &kpj.Options{Algorithm: alg, Index: ix}
		scratch := &kpj.Options{Algorithm: alg, Index: scratchIx}
		got, err := curG.TopKJoinSets(c.sources, targets, c.k, applied)
		if err != nil {
			t.Fatalf("%s: applied: %v", alg, err)
		}
		ref, err := scratchG.TopKJoinSets(c.sources, targets, c.k, scratch)
		if err != nil {
			t.Fatalf("%s: scratch: %v", alg, err)
		}
		// Law 1: applied chain ≡ from-scratch rebuild, path for path.
		if len(got) != len(ref) {
			t.Fatalf("%s: applied %d paths, scratch %d", alg, len(got), len(ref))
		}
		for i := range got {
			if got[i].Length != ref[i].Length || !reflect.DeepEqual(got[i].Nodes, ref[i].Nodes) {
				t.Fatalf("%s: path %d diverges: applied %v (%d), scratch %v (%d)",
					alg, i, got[i].Nodes, got[i].Length, ref[i].Nodes, ref[i].Length)
			}
		}
		// Law 2: both agree with exhaustive enumeration, and every
		// returned path is a real simple path on the final graph.
		if len(got) != len(want) {
			t.Fatalf("%s: %d paths, oracle has %d", alg, len(got), len(want))
		}
		for i, p := range got {
			if p.Length != want[i].Length {
				t.Fatalf("%s: path %d length %d, oracle %d", alg, i, p.Length, want[i].Length)
			}
			validateOraclePath(t, oc, alg, p)
		}
	}
}

// TestMetamorphicChurnSuite is the main sweep: ~200 seeded
// (graph, delta-schedule, query) cases, each checked across every
// engine.
func TestMetamorphicChurnSuite(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 25
	}
	for i := 0; i < cases; i++ {
		c := deltaCaseFor(t, i)
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			runChurnCase(t, c)
		})
	}
}

// TestChurnTruncationBudget checks the degraded contract survives churn:
// after the schedule, a budgeted query on the applied chain returns a
// truncated prefix of the scratch world's answer.
func TestChurnTruncationBudget(t *testing.T) {
	c := deltaCaseFor(t, 2)
	ix, err := kpj.BuildIndex(c.g, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	curG := c.g
	curOg := c.og
	for _, d := range c.schedule {
		app, err := ix.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if curOg, _, err = graph.Apply(curOg, d); err != nil {
			t.Fatal(err)
		}
		curG, ix = app.Graph, app.Index
	}
	targets := c.targets
	if targets == nil {
		if targets, err = curG.Category("poi"); err != nil {
			t.Fatal(err)
		}
	}
	full, err := curG.TopKJoinSets(c.sources, targets, c.k, &kpj.Options{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	_, err = curG.TopKJoinSets(c.sources, targets, c.k, &kpj.Options{Index: ix, Budget: 1})
	if err == nil {
		return // trivial query finished within one unit of work
	}
	partial, ok := kpj.Truncated(err)
	if !ok {
		t.Fatalf("budget error is not a truncation: %v", err)
	}
	if len(partial) > len(full) {
		t.Fatalf("truncated result has %d paths, full run %d", len(partial), len(full))
	}
	for i := range partial {
		if partial[i].Length != full[i].Length {
			t.Fatalf("truncated path %d is not a prefix of the full answer", i)
		}
	}
}
