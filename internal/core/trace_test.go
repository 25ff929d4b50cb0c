package core_test

import (
	"testing"

	"kpj/internal/core"
	"kpj/internal/graph"
	"kpj/internal/landmark"
	"kpj/internal/testgraphs"
)

// Trace invariants on the Fig. 1 query, across every algorithm:
//   - exactly k EventEmit, with non-decreasing lengths matching the result;
//   - every emitted vertex was enqueued before emission;
//   - IterBound resolve rounds use strictly increasing τ per vertex;
//   - lower bounds never exceed the eventual emitted length of the same
//     subspace.
func TestTraceInvariants(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	ix, err := landmark.Build(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Sources: []graph.NodeID{testgraphs.V1}, Targets: hotels, K: 5}
	for name, fn := range core.Algorithms() {
		var events []core.Event
		paths, err := fn(g, q, core.Options{Index: ix, Trace: func(ev core.Event) {
			events = append(events, ev)
		}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var emits []core.Event
		lastTau := map[core.VertexID]graph.Weight{}
		known := map[core.VertexID]bool{}
		for _, ev := range events {
			switch ev.Kind {
			case core.EventEnqueue:
				known[ev.Vertex] = true
			case core.EventEmit:
				if !known[ev.Vertex] {
					t.Fatalf("%s: emit of never-enqueued vertex %d", name, ev.Vertex)
				}
				emits = append(emits, ev)
			case core.EventResolve:
				if ev.Status == core.Exceeded {
					if prev, ok := lastTau[ev.Vertex]; ok && ev.Tau <= prev {
						t.Fatalf("%s: τ did not grow at vertex %d: %d after %d", name, ev.Vertex, ev.Tau, prev)
					}
					lastTau[ev.Vertex] = ev.Tau
				}
			}
		}
		if len(emits) != len(paths) {
			t.Fatalf("%s: %d emits for %d paths", name, len(emits), len(paths))
		}
		for i, ev := range emits {
			if ev.Length != paths[i].Length {
				t.Fatalf("%s: emit %d length %d, path %d", name, i, ev.Length, paths[i].Length)
			}
			if i > 0 && ev.Length < emits[i-1].Length {
				t.Fatalf("%s: emits out of order", name)
			}
		}
	}
}

// The deviation baselines trace through the same Event type: every
// subspace they enqueue was first resolved exactly (τ = ∞, status Found),
// so they never trace a CompLB drop or an exceeded bound.
func TestTraceBaselinesSeeEvents(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	q := core.Query{Sources: []graph.NodeID{testgraphs.V1}, Targets: hotels, K: 5}
	for name, fn := range map[string]core.Func{"DA": core.DA, "DA-SPT": core.DASPT} {
		var events []core.Event
		if _, err := fn(g, q, core.Options{Trace: func(ev core.Event) { events = append(events, ev) }}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		found := map[core.VertexID]bool{0: true} // the initial path is the first resolution
		resolves := 0
		for _, ev := range events {
			switch ev.Kind {
			case core.EventResolve:
				resolves++
				if ev.Tau != graph.Infinity || (ev.Status != core.Found && ev.Status != core.Empty) {
					t.Fatalf("%s: resolve %+v is not an exact search", name, ev)
				}
				found[ev.Vertex] = ev.Status == core.Found
			case core.EventEnqueue:
				if !found[ev.Vertex] {
					t.Fatalf("%s: vertex %d enqueued unresolved", name, ev.Vertex)
				}
			case core.EventDrop:
				t.Fatalf("%s: CompLB drop %+v in an eager row", name, ev)
			}
		}
		if resolves == 0 {
			t.Fatalf("%s: no resolve events", name)
		}
	}
	for kind, want := range map[core.EventKind]string{
		core.EventEmit:    "emit",
		core.EventEnqueue: "enqueue",
		core.EventResolve: "resolve",
		core.EventDrop:    "drop",
	} {
		if kind.String() != want {
			t.Fatalf("EventKind(%d).String() = %q, want %q", int(kind), kind.String(), want)
		}
	}
}

// Tracing must not alter results.
func TestTraceDoesNotChangeResults(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	q := core.Query{Sources: []graph.NodeID{testgraphs.V1}, Targets: hotels, K: 5}
	plain, err := core.IterBoundSPTI(g, q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := core.IterBoundSPTI(g, q, core.Options{Trace: func(core.Event) {}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(traced) {
		t.Fatal("tracing changed the result count")
	}
	for i := range plain {
		if plain[i].Length != traced[i].Length {
			t.Fatal("tracing changed result lengths")
		}
	}
}
