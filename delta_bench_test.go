package kpj_test

import (
	"bytes"
	"fmt"
	"testing"

	"kpj"
	"kpj/internal/gen"
)

// These benchmarks justify incremental landmark repair end to end: for
// the same delta, Index.Apply (graph.Apply, then repair every damaged
// table by dynamic SSSP over its dirty region) must beat graph.Apply
// followed by BuildIndexWithLandmarks (2·L full Dijkstras over the new
// graph), the from-scratch work repair avoids. Both sides pay the same
// graph.Apply; internal/landmark's BenchmarkRepair times the repair
// alone, on single-edge increases as well as the ÷8 decreases drawn
// here. Run with:
//
//	go test -run '^$' -bench 'BenchmarkApply(Incremental|Rebuild)' -benchtime 2s .
func deltaBenchSetup(b *testing.B, ops int) (*kpj.Graph, *kpj.Index, *kpj.Delta) {
	b.Helper()
	og, err := gen.Road(gen.RoadConfig{Width: 40, Height: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	edges := edgesOf(og)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "p sp %d %d\n", og.NumNodes(), len(edges))
	for _, e := range edges {
		fmt.Fprintf(&buf, "a %d %d %d\n", e[0]+1, e[1]+1, e[2])
	}
	pg, err := kpj.ReadGraph(&buf)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := kpj.BuildIndex(pg, 8, 7)
	if err != nil {
		b.Fatal(err)
	}
	d := &kpj.Delta{}
	seen := map[[2]int64]bool{}
	for _, e := range edges {
		key := [2]int64{e[0], e[1]}
		if seen[key] {
			continue
		}
		seen[key] = true
		// Large decreases so even a 1-op delta genuinely damages
		// landmark tables — the interesting case for repair.
		w := e[2] / 8
		if w < 1 {
			w = 1
		}
		d.SetWeights = append(d.SetWeights, kpj.EdgeUpdate{
			U: kpj.NodeID(e[0]), V: kpj.NodeID(e[1]), W: w,
		})
		if len(d.SetWeights) == ops {
			break
		}
	}
	return pg, ix, d
}

// BenchmarkApplyIncremental measures Index.Apply at growing delta sizes.
func BenchmarkApplyIncremental(b *testing.B) {
	for _, ops := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("ops%d", ops), func(b *testing.B) {
			_, ix, d := deltaBenchSetup(b, ops)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				app, err := ix.Apply(d)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(app.Stats.Repaired()), "tables-repaired")
				}
			}
		})
	}
}

// BenchmarkApplyRebuild measures the same deltas applied to the graph
// followed by a from-scratch index build with the same landmarks — the
// cost incremental repair is avoiding.
func BenchmarkApplyRebuild(b *testing.B) {
	for _, ops := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("ops%d", ops), func(b *testing.B) {
			g, ix, d := deltaBenchSetup(b, ops)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ng, err := g.WithDelta(d)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := kpj.BuildIndexWithLandmarks(ng, ix.Landmarks()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
