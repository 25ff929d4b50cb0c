package sssp

import (
	"context"
	"errors"
	"testing"

	"kpj/internal/graph"
	"kpj/internal/testgraphs"
)

// bigLine builds a long path graph of weight-w edges so Dijkstra has real
// work to cancel: w = 1 runs the bucket-queue loop, w above 2^30
// (pqueue.MaxBucketEdgeWeight) the binary-heap loop.
func bigLine(t *testing.T, n int, w graph.Weight) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddBiEdge(graph.NodeID(i), graph.NodeID(i+1), w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDijkstraContextNilMatchesPlain(t *testing.T) {
	g := testgraphs.Fig1()
	plain := Dijkstra(g, graph.Forward, 0)
	withCtx, err := DijkstraOffsetsContext(context.Background(), g, graph.Forward, []graph.NodeID{0}, []graph.Weight{0})
	if err != nil {
		t.Fatalf("uncanceled context errored: %v", err)
	}
	for v := range plain.Dist {
		if plain.Dist[v] != withCtx.Dist[v] {
			t.Fatalf("node %d: dist %d vs %d", v, plain.Dist[v], withCtx.Dist[v])
		}
	}
}

func TestDijkstraContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []graph.Weight{1, 1 << 31} { // bucket loop, heap loop
		g := bigLine(t, 200000, w)
		tree, err := DijkstraOffsetsContext(ctx, g, graph.Forward, []graph.NodeID{0}, []graph.Weight{0})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("w=%d: err = %v, want context.Canceled", w, err)
		}
		if tree == nil {
			t.Fatalf("w=%d: canceled Dijkstra must still return the partial tree", w)
		}
		// Settled distances of a partial tree are exact; the far end must
		// be unreached given the immediate cancellation.
		if tree.Reached(graph.NodeID(g.NumNodes() - 1)) {
			t.Fatalf("w=%d: canceled search claims to have reached the far end", w)
		}
	}
}
