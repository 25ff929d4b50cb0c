// Ablation benchmarks for the design choices DESIGN.md calls out: landmark
// selection strategy, workspace reuse, the SPT overlays, and the
// iteratively-bounding discipline itself. These go beyond the paper's
// figures — they isolate the contribution of individual mechanisms.
package kpj_test

import (
	"bytes"
	"testing"

	"kpj/internal/core"
	"kpj/internal/flatindex"
	"kpj/internal/graph"
	"kpj/internal/landmark"
)

// BenchmarkAblationLandmarkSelection compares farthest-point landmark
// selection (the paper's choice, footnote 3) against uniform random
// selection at equal |L|.
func BenchmarkAblationLandmarkSelection(b *testing.B) {
	e := env()
	g, err := e.Graph("CAL")
	if err != nil {
		b.Fatal(err)
	}
	targets, err := g.Category("Lake")
	if err != nil {
		b.Fatal(err)
	}
	sets, _, err := e.QuerySets("CAL", "Lake")
	if err != nil {
		b.Fatal(err)
	}
	sources := sets[2]
	builders := map[string]func() (*landmark.Index, error){
		"farthest": func() (*landmark.Index, error) { return landmark.Build(g, 8, 1) },
		"random":   func() (*landmark.Index, error) { return landmark.BuildRandom(g, 8, 1) },
	}
	for _, name := range []string{"farthest", "random"} {
		ix, err := builders[name]()
		if err != nil {
			b.Fatal(err)
		}
		opt := core.Options{Index: ix, Alpha: 1.1, Workspace: core.NewWorkspace(g.NumNodes() + 2)}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := core.Query{Sources: []graph.NodeID{sources[i%len(sources)]}, Targets: targets, K: 20}
				if _, err := core.IterBoundSPTI(g, q, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWorkspaceReuse quantifies the epoch-stamped scratch
// reuse: fresh workspace per query vs one reused across queries.
func BenchmarkAblationWorkspaceReuse(b *testing.B) {
	e := env()
	g, err := e.Graph("COL")
	if err != nil {
		b.Fatal(err)
	}
	targets, err := g.Category("T2")
	if err != nil {
		b.Fatal(err)
	}
	sets, _, err := e.QuerySets("COL", "T2")
	if err != nil {
		b.Fatal(err)
	}
	sources := sets[2]
	ix, err := e.IndexWith("COL", 8)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, ws *core.Workspace) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := core.Query{Sources: []graph.NodeID{sources[i%len(sources)]}, Targets: targets, K: 20}
			if _, err := core.IterBoundSPTI(g, q, core.Options{Index: ix, Alpha: 1.1, Workspace: ws}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("reused", func(b *testing.B) { run(b, core.NewWorkspace(g.NumNodes()+2)) })
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := core.Query{Sources: []graph.NodeID{sources[i%len(sources)]}, Targets: targets, K: 20}
			if _, err := core.IterBoundSPTI(g, q, core.Options{Index: ix, Alpha: 1.1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBoundingDiscipline isolates what each mechanism adds on
// one fixed query mix: exact best-first (no τ), plain iterative bounding,
// the SPT_P overlay, and the full reverse-space SPT_I approach.
func BenchmarkAblationBoundingDiscipline(b *testing.B) {
	for _, step := range []struct {
		name string
		fn   core.Func
	}{
		{"1-bestfirst", core.BestFirst},
		{"2-iterbound", core.IterBound},
		{"3-sptp", core.IterBoundSPTP},
		{"4-spti", core.IterBoundSPTI},
	} {
		b.Run(step.name, func(b *testing.B) {
			e := env()
			g, err := e.Graph("COL")
			if err != nil {
				b.Fatal(err)
			}
			targets, err := g.Category("T2")
			if err != nil {
				b.Fatal(err)
			}
			sets, _, err := e.QuerySets("COL", "T2")
			if err != nil {
				b.Fatal(err)
			}
			ix, err := e.IndexWith("COL", 8)
			if err != nil {
				b.Fatal(err)
			}
			opt := core.Options{Index: ix, Alpha: 1.1, Workspace: core.NewWorkspace(g.NumNodes() + 2)}
			sources := sets[3] // Q4: where the disciplines differ most
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := core.Query{Sources: []graph.NodeID{sources[i%len(sources)]}, Targets: targets, K: 20}
				if _, err := step.fn(g, q, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIndexPersistence compares building the landmark index
// from scratch against loading graph and index from the flat format with
// full verification.
func BenchmarkAblationIndexPersistence(b *testing.B) {
	e := env()
	g, err := e.Graph("CAL")
	if err != nil {
		b.Fatal(err)
	}
	ix, err := landmark.Build(g, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := flatindex.Write(&buf, g, ix); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := landmark.Build(g, 8, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := flatindex.Read(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
