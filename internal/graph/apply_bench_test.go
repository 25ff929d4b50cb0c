package graph_test

import (
	"math/rand"
	"testing"

	"kpj/internal/gen"
	"kpj/internal/graph"
)

// BenchmarkApply times graph.Apply alone on the bench/kpjload dataset
// (gen.Road 300×300), cycling through 32 prepared deltas over one parent
// graph: reweight1 is the update-reweight workload's delta (one edge made
// 1..50 heavier), churn8 is live-churn's (8 mixed gen.Churn ops). B/op
// and allocs/op are the machine-independent half of graph.apply_ms.
func BenchmarkApply(b *testing.B) {
	g := roadGraph(b, 300)
	reweights := make([]*graph.Delta, 32)
	churns := make([]*graph.Delta, 32)
	rng := rand.New(rand.NewSource(1))
	for i := range reweights {
		u, e := randomEdge(rng, g)
		reweights[i] = &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: u, V: e.To, W: e.W + 1 + rng.Int63n(50)}}}
		ds, _, err := gen.Churn(g, gen.ChurnConfig{Steps: 1, Ops: 8, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		churns[i] = ds[0]
	}
	for _, bc := range []struct {
		name   string
		deltas []*graph.Delta
	}{{"reweight1", reweights}, {"churn8", churns}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := graph.Apply(g, bc.deltas[i%len(bc.deltas)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// roadGraph is a side×side gen.Road with the nested T1..T4 categories.
func roadGraph(tb testing.TB, side int) *graph.Graph {
	tb.Helper()
	g, err := gen.Road(gen.RoadConfig{Width: side, Height: side, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := gen.AddNestedCategories(g, 1); err != nil {
		tb.Fatal(err)
	}
	return g
}

// randomEdge draws an edge uniformly over the non-empty rows of g.
func randomEdge(rng *rand.Rand, g *graph.Graph) (graph.NodeID, graph.Edge) {
	for {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		if out := g.Out(u); len(out) > 0 {
			return u, out[rng.Intn(len(out))]
		}
	}
}
