package landmark

import (
	"math/rand"
	"testing"

	"kpj/internal/gen"
	"kpj/internal/graph"
)

var boundsSink graph.Weight

// BenchmarkBoundsLowerBound times one lb(v, V_T) evaluation (paper Eq. 2),
// the call IterBound-SPT_I's growth makes for every node it queues, on a
// 300×300 road network with 16 landmarks and destination category T1,
// over a fixed random node sequence:
//
//	go test -run '^$' -bench BenchmarkBoundsLowerBound ./internal/landmark/
func BenchmarkBoundsLowerBound(b *testing.B) {
	g, err := gen.Road(gen.RoadConfig{Width: 300, Height: 300, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := gen.AddNestedCategories(g, 2); err != nil {
		b.Fatal(err)
	}
	ix, err := Build(g, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	targets, _ := g.Category("T1")
	bounds := ix.BoundsToSet(targets)
	rng := rand.New(rand.NewSource(1))
	nodes := make([]graph.NodeID, 1<<16)
	for i := range nodes {
		nodes[i] = graph.NodeID(rng.Intn(g.NumNodes()))
	}
	var sum graph.Weight
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += bounds.LowerBound(nodes[i&(len(nodes)-1)])
	}
	boundsSink = sum
}
