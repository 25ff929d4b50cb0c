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
	withCtx, err := DijkstraContext(context.Background(), g, graph.Forward, 0)
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
		tree, err := DijkstraContext(ctx, g, graph.Forward, 0)
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

func TestAStarContextCanceled(t *testing.T) {
	g := bigLine(t, 200000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, found, err := AStarContext(ctx, g, graph.Forward, 0, graph.NodeID(g.NumNodes()-1), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if found {
		t.Fatal("canceled A* must not report a path")
	}
}

func TestAStarContextNilMatchesPlain(t *testing.T) {
	g := testgraphs.Fig1()
	p1, l1, ok1 := AStar(g, graph.Forward, 0, 10, nil)
	p2, l2, ok2, err := AStarContext(context.Background(), g, graph.Forward, 0, 10, nil)
	if err != nil {
		t.Fatalf("uncanceled context errored: %v", err)
	}
	if ok1 != ok2 || l1 != l2 || len(p1) != len(p2) {
		t.Fatalf("plain (%v,%d,%v) vs context (%v,%d,%v)", p1, l1, ok1, p2, l2, ok2)
	}
}
