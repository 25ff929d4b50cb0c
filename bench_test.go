// Benchmarks: one testing.B benchmark per table/figure of the paper's
// evaluation. They exercise the same sweeps as cmd/kpjbench but at a
// reduced, benchmark-friendly scale — use the command for the full tables
// (see EXPERIMENTS.md for recorded results at the default scale).
package kpj_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"kpj/internal/core"
	"kpj/internal/experiments"
	"kpj/internal/gen"
	"kpj/internal/graph"
	"kpj/internal/landmark"
	"kpj/internal/sssp"
)

// benchEnv is the shared lazily-built dataset cache for all benchmarks.
var (
	benchOnce sync.Once
	benchE    *experiments.Env
)

func env() *experiments.Env {
	benchOnce.Do(func() {
		benchE = experiments.NewEnv(experiments.Config{
			Scale: 0.08, PerSet: 5, Landmarks: 8, Alpha: 1.1, Seed: 1,
		})
	})
	return benchE
}

// benchQuery runs one algorithm repeatedly over rotating Q3 sources.
func benchQuery(b *testing.B, ds, algo, category string, k int, landmarks int, alpha float64) {
	b.Helper()
	e := env()
	g, err := e.Graph(ds)
	if err != nil {
		b.Fatal(err)
	}
	targets, err := g.Category(category)
	if err != nil {
		b.Fatal(err)
	}
	sets, _, err := e.QuerySets(ds, category)
	if err != nil {
		b.Fatal(err)
	}
	sources := sets[2] // Q3
	fn, err := experiments.Algorithm(algo)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := e.IndexWith(ds, landmarks)
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Options{Alpha: alpha, Index: ix, Workspace: core.NewWorkspace(g.NumNodes() + 2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := core.Query{Sources: []graph.NodeID{sources[i%len(sources)]}, Targets: targets, K: k}
		paths, err := fn(g, q, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkTable1Datasets measures dataset generation (Table 1 substrate):
// one op generates the scaled SJ road network with nested categories.
func BenchmarkTable1Datasets(b *testing.B) {
	ds, err := gen.ByName("SJ")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := ds.Build(0.2, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gen.AddNestedCategories(g, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6LandmarkCount sweeps |L| for IterBound_I on CAL (Fig. 6a).
func BenchmarkFig6LandmarkCount(b *testing.B) {
	for _, count := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("L=%d", count), func(b *testing.B) {
			benchQuery(b, "CAL", "IterBoundI", "Harbor", 20, count, 1.1)
		})
	}
}

// BenchmarkFig6Alpha sweeps α for IterBound_I on CAL (Fig. 6b).
func BenchmarkFig6Alpha(b *testing.B) {
	for _, alpha := range []float64{1.05, 1.1, 1.2, 1.5, 1.8} {
		b.Run(fmt.Sprintf("a=%v", alpha), func(b *testing.B) {
			benchQuery(b, "CAL", "IterBoundI", "Harbor", 20, 8, alpha)
		})
	}
}

// BenchmarkFig7Baselines compares all seven algorithms on CAL, T=Lake,
// k=20 (Fig. 7).
func BenchmarkFig7Baselines(b *testing.B) {
	for _, algo := range experiments.AlgorithmOrder {
		b.Run(algo, func(b *testing.B) {
			benchQuery(b, "CAL", algo, "Lake", 20, 8, 1.1)
		})
	}
}

// BenchmarkFig8KSP compares all seven algorithms on the KSP special case
// (CAL, T=Glacier with one node, Fig. 8).
func BenchmarkFig8KSP(b *testing.B) {
	for _, algo := range experiments.AlgorithmOrder {
		b.Run(algo, func(b *testing.B) {
			benchQuery(b, "CAL", algo, "Glacier", 20, 8, 1.1)
		})
	}
}

// BenchmarkFig9Ours compares the contributed algorithms on SJ, T=T2
// (Fig. 9).
func BenchmarkFig9Ours(b *testing.B) {
	for _, algo := range experiments.OursOrder {
		b.Run(algo, func(b *testing.B) {
			benchQuery(b, "SJ", algo, "T2", 20, 8, 1.1)
		})
	}
}

// BenchmarkFig10DestCount sweeps the destination-category size on COL
// (Fig. 10) for the flagship algorithm and BestFirst.
func BenchmarkFig10DestCount(b *testing.B) {
	for _, cat := range gen.NestedNames {
		for _, algo := range []string{"BestFirst", "IterBoundI"} {
			b.Run(fmt.Sprintf("%s/%s", cat, algo), func(b *testing.B) {
				benchQuery(b, "COL", algo, cat, 20, 8, 1.1)
			})
		}
	}
}

// BenchmarkFig11Percentile measures the distance-distribution sampling
// behind Fig. 11: one op is one full SSSP contributing n observations.
func BenchmarkFig11Percentile(b *testing.B) {
	e := env()
	g, err := e.Graph("SJ")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := graph.NodeID(i % g.NumNodes())
		tree := sssp.Dijkstra(g, graph.Forward, src)
		if tree.Dist[src] != 0 {
			b.Fatal("bad SSSP")
		}
	}
}

// BenchmarkFig12Scalability runs IterBound_I across dataset sizes and k
// values (Fig. 12).
func BenchmarkFig12Scalability(b *testing.B) {
	for _, ds := range []string{"SJ", "CAL", "COL"} {
		b.Run("ds="+ds, func(b *testing.B) {
			benchQuery(b, ds, "IterBoundI", "T2", 20, 8, 1.1)
		})
	}
	for _, k := range []int{10, 50, 100, 200, 500} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchQuery(b, "COL", "IterBoundI", "T2", k, 8, 1.1)
		})
	}
}

// BenchmarkIndexBuild measures landmark index construction (|L|=20 on
// COL): 2|L|+1 independent Dijkstras, fanned across GOMAXPROCS workers,
// so `-cpu 1,4` exposes the build's parallel scaling.
func BenchmarkIndexBuild(b *testing.B) {
	e := env()
	g, err := e.Graph("COL")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := landmark.BuildParallel(g, 20, 1, runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
		if ix.Count() != 20 {
			b.Fatalf("got %d landmarks", ix.Count())
		}
	}
}

// BenchmarkFig13GKPJ compares DA-SPT and IterBound_I on category-to-
// category joins (Fig. 13): |S| = 4 random sources, T = T2 on COL.
func BenchmarkFig13GKPJ(b *testing.B) {
	e := env()
	g, err := e.Graph("COL")
	if err != nil {
		b.Fatal(err)
	}
	targets, err := g.Category("T2")
	if err != nil {
		b.Fatal(err)
	}
	n := graph.NodeID(g.NumNodes())
	sources := []graph.NodeID{11, n / 3, 2 * n / 3, n - 7}
	ix, err := e.IndexWith("COL", 8)
	if err != nil {
		b.Fatal(err)
	}
	for name, fn := range map[string]core.Func{
		"DA-SPT":     core.DASPT,
		"IterBoundI": core.IterBoundSPTI,
	} {
		opt := core.Options{Alpha: 1.1, Index: ix, Workspace: core.NewWorkspace(g.NumNodes() + 2)}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := core.Query{Sources: sources, Targets: targets, K: 20}
				paths, err := fn(g, q, opt)
				if err != nil {
					b.Fatal(err)
				}
				if len(paths) == 0 {
					b.Fatal("no paths")
				}
			}
		})
	}
}
