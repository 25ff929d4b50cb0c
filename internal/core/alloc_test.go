package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"kpj/internal/gen"
	"kpj/internal/graph"
	"kpj/internal/landmark"
	"kpj/internal/testgraphs"
)

// These tests are the one gate on the engine's allocation claim: a query on
// a warm Workspace makes no heap allocation per pop, per relaxation or per
// subspace. They measure it with testing.AllocsPerRun on real queries, so
// closure bodies, callbacks, cache hits and abort branches are all covered
// — whatever the query executes is counted. CI runs them by name (plain
// and under -race) and fails if any of them did not run; see README
// "Allocation budget".

// allocFixture is one pinned workload: a graph, its landmark index and a
// query whose full answer needs a few thousand pops and relaxations.
type allocFixture struct {
	g  *graph.Graph
	ix *landmark.Index
	q  Query
}

func kspAllocFixture(t *testing.T) allocFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g := testgraphs.RandomConnected(rng, 400, 1600, 50)
	targets := testgraphs.RandomCategory(rng, g, "T", 8)
	ix, err := landmark.Build(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return allocFixture{g, ix, Query{Sources: []graph.NodeID{0}, Targets: targets, K: 8}}
}

// gkpjAllocFixture is the multi-source (GKPJ) workload: it exercises the
// virtual-root path, SourceSetHeuristic boxing and the workspace's
// from-set tables.
func gkpjAllocFixture(t *testing.T) allocFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := testgraphs.RandomConnected(rng, 300, 1200, 40)
	targets := testgraphs.RandomCategory(rng, g, "T", 6)
	ix, err := landmark.Build(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return allocFixture{g, ix, Query{Sources: []graph.NodeID{1, 2, 3}, Targets: targets, K: 5}}
}

// queryAllocs warms opt's workspace with three runs of
// the query — growing every arena and scratch array to its steady-state
// capacity — and returns the allocations per run over `runs` further ones,
// together with the number of paths a run returned. Every run must end in
// wantErr.
func queryAllocs(t *testing.T, name string, fn Func, fx allocFixture, q Query, opt Options, wantErr error, runs int) (allocs float64, paths int) {
	t.Helper()
	run := func() {
		out, err := fn(fx.g, q, opt)
		if !errors.Is(err, wantErr) {
			t.Fatalf("%s: err = %v, want %v", name, err, wantErr)
		}
		paths = len(out)
	}
	run()
	run()
	return testing.AllocsPerRun(runs, run), paths // its own warm-up call is the third
}

// steadyOptions is the configuration the zero-allocation claim is made
// for: warm workspace (its Eq. 2 tables included), results aliasing the
// workspace.
func steadyOptions(fx allocFixture) Options {
	return Options{
		Index:        fx.ix,
		Workspace:    NewWorkspace(fx.g.NumNodes() + 2),
		ReuseResults: true,
	}
}

// pinSteadyState runs one subtest per row of the variant table, so CI can
// require each row's pin by name.
func pinSteadyState(t *testing.T, fx allocFixture) {
	opt := steadyOptions(fx)
	for name, fn := range Algorithms() {
		t.Run(name, func(t *testing.T) {
			if allocs, _ := queryAllocs(t, name, fn, fx, fx.q, opt, nil, 20); allocs != 0 {
				t.Errorf("%.1f allocs per steady-state query, want 0", allocs)
			}
		})
	}
}

// TestSteadyStateQueryAllocs pins the claim itself: a warm Workspace plus
// ReuseResults runs every row of the variant table, the deviation
// baselines included, with ZERO heap allocations per query — the Eq. 2
// tables are rebuilt in workspace storage. Any regression — a map
// rebuilt per query, a closure escaping, a value heuristic boxed into an
// interface — shows up here as a non-zero count long before it shows up
// in a benchmark.
func TestSteadyStateQueryAllocs(t *testing.T) {
	pinSteadyState(t, kspAllocFixture(t))
}

// TestSteadyStateGKPJAllocs repeats the pin for a multi-source query.
func TestSteadyStateGKPJAllocs(t *testing.T) {
	pinSteadyState(t, gkpjAllocFixture(t))
}

// TestTruncatedQueryAllocs pins the branches a completed query never
// takes: a query stopped by its work budget (SearchStatus Aborted, the
// engine's early returns, the partial-result hand-back) allocates exactly
// one object, the Bound that prepare builds — whether it is stopped after
// 5, 40 or 200 units of work.
func TestTruncatedQueryAllocs(t *testing.T) {
	fixtures := map[string]allocFixture{"KSP": kspAllocFixture(t), "GKPJ": gkpjAllocFixture(t)}
	for name, fn := range Algorithms() {
		t.Run(name, func(t *testing.T) {
			for fxName, fx := range fixtures {
				opt := steadyOptions(fx)
				for _, budget := range []int64{5, 40, 200} {
					opt.Budget = budget
					if allocs, _ := queryAllocs(t, name, fn, fx, fx.q, opt, ErrBudgetExceeded, 20); allocs != 1 {
						t.Errorf("%s budget %d: %.1f allocs per truncated query, want 1 (the Bound)", fxName, budget, allocs)
					}
				}
			}
		})
	}
}

// copyingHeadroom is what a query without ReuseResults may allocate on
// top of one copy per returned path: the doubling growth of the result
// slice (log k steps). Measured 5-10 over the k below (k = 500 is ten
// doublings).
const copyingHeadroom = 15

// TestCopyingModeAllocs pins the default mode an ordinary caller uses:
// without ReuseResults a query pays one allocation per returned path plus
// a small constant — never anything that grows with pops or relaxations
// (thousands per query here).
func TestCopyingModeAllocs(t *testing.T) {
	fx := kspAllocFixture(t)
	for name, fn := range Algorithms() {
		t.Run(name, func(t *testing.T) {
			opt := Options{Index: fx.ix, Workspace: NewWorkspace(fx.g.NumNodes() + 2)}
			for _, k := range []int{10, 20, 50, 100, 500} {
				q := fx.q
				q.K = k
				allocs, paths := queryAllocs(t, name, fn, fx, q, opt, nil, 3)
				if paths != k {
					t.Fatalf("k=%d: %d paths returned; the fixture must yield k", k, paths)
				}
				if extra := allocs - float64(paths); extra > copyingHeadroom {
					t.Errorf("k=%d: %.1f allocs for %d paths: %.1f beyond the copies, want <= %d",
						k, allocs, paths, extra, copyingHeadroom)
				}
			}
		})
	}
}

// TestReuseResultsAliasing documents the ReuseResults contract: the slices
// returned under ReuseResults alias workspace storage and are invalidated
// by the workspace's next query, while the default mode returns stable
// copies.
func TestReuseResultsAliasing(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	ws := NewWorkspace(g.NumNodes() + 2)
	q := Query{Sources: []graph.NodeID{testgraphs.V1}, Targets: hotels, K: 3}

	stable, err := IterBoundSPTI(g, q, Options{Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([][]graph.NodeID, len(stable))
	for i, p := range stable {
		snapshot[i] = append([]graph.NodeID(nil), p.Nodes...)
	}
	// A second query on the same workspace must not disturb copied results.
	if _, err := IterBoundSPTI(g, q, Options{Workspace: ws, ReuseResults: true}); err != nil {
		t.Fatal(err)
	}
	for i, p := range stable {
		for j, v := range p.Nodes {
			if snapshot[i][j] != v {
				t.Fatalf("default-mode path %d mutated by later query", i)
			}
		}
	}
	// ReuseResults output matches the stable output value-wise while the
	// workspace is quiescent.
	reused, err := IterBoundSPTI(g, q, Options{Workspace: ws, ReuseResults: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(reused) != len(stable) {
		t.Fatalf("len mismatch: %d vs %d", len(reused), len(stable))
	}
	for i := range reused {
		if reused[i].Length != stable[i].Length {
			t.Fatalf("path %d length %d vs %d", i, reused[i].Length, stable[i].Length)
		}
	}
}

// TestWorkspaceTablesAcrossIndexes runs one workspace through queries on
// two indexes of one graph with different landmark counts, back again,
// then a GKPJ query: reused Eq. 2 tables that kept a stale L or stale
// entries would change a bound. Every answer must equal a fresh
// workspace's, and the workspace's tables must equal ones built into a
// fresh value.
func TestWorkspaceTablesAcrossIndexes(t *testing.T) {
	g, err := gen.Road(gen.RoadConfig{Width: 40, Height: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.AddNestedCategories(g, 2); err != nil {
		t.Fatal(err)
	}
	ixA, err := landmark.Build(g, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	ixB, err := landmark.Build(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := g.Category("T1")
	t4, _ := g.Category("T4")
	steps := []struct {
		name string
		ix   *landmark.Index
		q    Query
	}{
		{"A/T4", ixA, Query{Sources: []graph.NodeID{0}, Targets: t4, K: 10}},
		{"B/T1", ixB, Query{Sources: []graph.NodeID{0}, Targets: t1, K: 10}},
		{"A/T4 again", ixA, Query{Sources: []graph.NodeID{0}, Targets: t4, K: 10}},
		{"A/GKPJ", ixA, Query{Sources: []graph.NodeID{0, 799, 1599}, Targets: t1, K: 10}},
		{"B/GKPJ", ixB, Query{Sources: []graph.NodeID{5, 1234}, Targets: t4, K: 10}},
	}
	ws := NewWorkspace(g.NumNodes() + 2)
	for _, st := range steps {
		got, err := IterBoundSPTI(g, st.q, Options{Index: st.ix, Workspace: ws})
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		want, err := IterBoundSPTI(g, st.q, Options{Index: st.ix, Workspace: NewWorkspace(g.NumNodes() + 2)})
		if err != nil {
			t.Fatalf("%s fresh: %v", st.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pooled workspace answered %v, fresh one %v", st.name, got, want)
		}
		if !reflect.DeepEqual(ws.toSet, *st.ix.BoundsToSet(st.q.Targets)) {
			t.Fatalf("%s: workspace to-set tables differ from a fresh build", st.name)
		}
		if len(st.q.Sources) > 1 && !reflect.DeepEqual(ws.fromSet, *st.ix.BoundsFromSet(st.q.Sources, new(landmark.FromBounds))) {
			t.Fatalf("%s: workspace from-set tables differ from a fresh build", st.name)
		}
	}
}
