package landmark

import (
	"math/rand"
	"testing"

	"kpj/internal/gen"
	"kpj/internal/graph"
)

// BenchmarkRepair times Repair alone — the graph is applied outside the
// timer — on the update shapes a road network sees most: one edge getting
// heavier, one getting lighter, and eight mixed reweights at once. Each
// sub-benchmark cycles through 32 pre-drawn deltas against the same base
// index and reports the mean work per call next to ns/op:
//
//	go test -run '^$' -bench BenchmarkRepair -benchtime 200x ./internal/landmark/
func BenchmarkRepair(b *testing.B) {
	g, err := gen.Road(gen.RoadConfig{Width: 100, Height: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(g, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	type applied struct {
		g       *graph.Graph
		changes []graph.EdgeChange
	}
	// draw prepares 32 deltas of `ops` distinct reweights each; up(i)
	// says whether the i-th op of a delta makes its edge heavier.
	draw := func(ops int, up func(i int) bool) []applied {
		rng := rand.New(rand.NewSource(int64(ops)))
		out := make([]applied, 32)
		for k := range out {
			var d graph.Delta
			seen := map[[2]graph.NodeID]bool{}
			for len(d.SetWeights) < ops {
				e := randomReweight(rng, g, up(len(d.SetWeights)))
				if !seen[[2]graph.NodeID{e.U, e.V}] {
					seen[[2]graph.NodeID{e.U, e.V}] = true
					d.SetWeights = append(d.SetWeights, e)
				}
			}
			ng, eff, err := graph.Apply(g, &d)
			if err != nil {
				b.Fatal(err)
			}
			out[k] = applied{ng, eff.Changes}
		}
		return out
	}
	for _, bc := range []struct {
		name string
		ops  int
		up   func(i int) bool
	}{
		{"increase1", 1, func(int) bool { return true }},
		{"decrease1", 1, func(int) bool { return false }},
		{"mixed8", 8, func(i int) bool { return i%2 == 0 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			deltas := draw(bc.ops, bc.up)
			var settled, repaired int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := deltas[i%len(deltas)]
				_, _, stats, err := Repair(a.g, ix, a.changes)
				if err != nil {
					b.Fatal(err)
				}
				settled += stats.Settled
				repaired += stats.Repaired()
			}
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
			b.ReportMetric(float64(repaired)/float64(b.N), "tables-repaired")
		})
	}
}
