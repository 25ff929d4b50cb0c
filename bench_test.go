// Benchmarks on the scaled paper datasets: the landmark index build here,
// the ablations in ablation_bench_test.go. The paper's tables and figures
// are regenerated by `kpjbench -exp` (see EXPERIMENTS.md);
// TestAllExperimentsRunSmall runs every one of its drivers.
package kpj_test

import (
	"sync"
	"testing"

	"kpj/internal/experiments"
	"kpj/internal/landmark"
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
		ix, err := landmark.Build(g, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		if ix.Count() != 20 {
			b.Fatalf("got %d landmarks", ix.Count())
		}
	}
}
