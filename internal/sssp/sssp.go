// Package sssp implements single-source (and multi-source) shortest path
// computation: Dijkstra's algorithm into shortest-path trees. These are
// the building blocks for landmark preprocessing, the workload
// generator's distance-percentile studies, and test oracles.
package sssp

import (
	"context"
	"fmt"

	"kpj/internal/graph"
	"kpj/internal/pqueue"
)

// pollEvery is the number of heap pops between context polls in the
// context-aware variants, keeping the hot loops branch-cheap.
const pollEvery = 256

// canceled polls ctx every pollEvery calls (countdown provided by the
// caller) and returns a wrapped context error when it is done.
func canceled(ctx context.Context, countdown *int) error {
	if ctx == nil {
		return nil
	}
	if *countdown--; *countdown > 0 {
		return nil
	}
	*countdown = pollEvery
	select {
	case <-ctx.Done():
		return fmt.Errorf("sssp: canceled: %w", context.Cause(ctx))
	default:
		return nil
	}
}

// Tree is a shortest-path tree (more precisely, forest) produced by
// Dijkstra. For a Forward tree rooted at sources S, Dist[v] is the shortest
// distance from the nearest source to v and Parent[v] is v's predecessor on
// that path. For a Backward tree, Dist[v] is the shortest distance from v
// TO the nearest source (the roots act as destinations) and Parent[v] is
// v's successor on that path.
type Tree struct {
	Dir    graph.Direction
	Dist   []graph.Weight // graph.Infinity when unreachable
	Parent []graph.NodeID // -1 for roots and unreachable nodes
}

// Reached reports whether v was reached from (or reaches) a root.
func (t *Tree) Reached(v graph.NodeID) bool { return t.Dist[v] < graph.Infinity }

// Dijkstra computes a shortest-path tree over g in the given direction from
// the source set. With dir == Forward, distances grow along out-edges
// (classic SSSP from the sources); with dir == Backward, Dist[v] is the
// distance from v to the nearest source following forward edges (the search
// itself walks in-edges). It panics if sources is empty or out of range.
func Dijkstra(g *graph.Graph, dir graph.Direction, sources ...graph.NodeID) *Tree {
	offsets := make([]graph.Weight, len(sources))
	return DijkstraOffsets(g, dir, sources, offsets)
}

// DijkstraOffsets is Dijkstra with a per-source initial distance, which
// models the zero/ω-weight virtual-node reductions of the paper (Sections 3
// and 6): a virtual node connected to source i with weight offsets[i].
func DijkstraOffsets(g *graph.Graph, dir graph.Direction, sources []graph.NodeID, offsets []graph.Weight) *Tree {
	t, _ := DijkstraOffsetsContext(nil, g, dir, sources, offsets)
	return t
}

// DijkstraOffsetsContext is DijkstraOffsets with cooperative cancellation:
// when ctx is canceled (or its deadline passes) the search stops within a
// few hundred heap pops and returns the partial tree built so far together
// with a wrapped context error. Distances already settled in a partial
// tree are exact; unsettled nodes report graph.Infinity. A nil ctx never
// cancels.
func DijkstraOffsetsContext(ctx context.Context, g *graph.Graph, dir graph.Direction, sources []graph.NodeID, offsets []graph.Weight) (*Tree, error) {
	if len(sources) == 0 {
		panic("sssp: no sources")
	}
	if len(sources) != len(offsets) {
		panic(fmt.Sprintf("sssp: %d sources but %d offsets", len(sources), len(offsets)))
	}
	n := g.NumNodes()
	t := &Tree{
		Dir:    dir,
		Dist:   make([]graph.Weight, n),
		Parent: make([]graph.NodeID, n),
	}
	for i := range t.Dist {
		t.Dist[i] = graph.Infinity
		t.Parent[i] = -1
	}
	for i, s := range sources {
		if s < 0 || int(s) >= n {
			panic(fmt.Sprintf("sssp: source %d out of range [0,%d)", s, n))
		}
		if offsets[i] < t.Dist[s] {
			t.Dist[s] = offsets[i]
		}
	}
	countdown := pollEvery
	// Both loops below keep the tree canonical under equal-length ties:
	// Parent[v] is the minimum-id optimal predecessor (every optimal
	// predecessor relaxes (u, v) exactly once when popped non-stale, so the
	// running min is queue-order independent). That makes the produced Tree
	// bit-identical whichever queue runs, which the oracle and chaos suites
	// assert.
	if g.MaxEdgeWeight() <= pqueue.MaxBucketEdgeWeight {
		// Integer road weights: monotone bucket (radix) queue with lazy
		// insertion. Duplicates are skipped by the distance check.
		q := pqueue.NewBucketQueue()
		for _, s := range sources {
			q.Push(s, t.Dist[s])
		}
		for q.Len() > 0 {
			if err := canceled(ctx, &countdown); err != nil {
				return t, err
			}
			v, d := q.Pop()
			if d > t.Dist[v] {
				continue // stale lazy-insertion duplicate
			}
			for _, e := range g.Edges(dir, v) {
				nd := d + e.W
				if nd < t.Dist[e.To] {
					t.Dist[e.To] = nd
					t.Parent[e.To] = v
					q.Push(e.To, nd)
				} else if nd == t.Dist[e.To] && v < t.Parent[e.To] {
					t.Parent[e.To] = v
				}
			}
		}
		return t, nil
	}
	// Unfriendly weight range: indexed binary heap with decrease-key.
	q := pqueue.NewNodeQueue(n)
	for _, s := range sources {
		q.PushOrDecrease(s, t.Dist[s])
	}
	for q.Len() > 0 {
		if err := canceled(ctx, &countdown); err != nil {
			return t, err
		}
		v, d := q.Pop()
		if d > t.Dist[v] {
			continue // stale entry (NodeQueue avoids these, but be safe)
		}
		for _, e := range g.Edges(dir, v) {
			nd := d + e.W
			if nd < t.Dist[e.To] {
				t.Dist[e.To] = nd
				t.Parent[e.To] = v
				q.PushOrDecrease(e.To, nd)
			} else if nd == t.Dist[e.To] && v < t.Parent[e.To] {
				t.Parent[e.To] = v
			}
		}
	}
	return t, nil
}

// DistancesToSet returns, for every node v, the shortest distance from v to
// the nearest node of targets (following forward edges). This is δ(v, t) in
// the paper's virtual-target graph G_Q, computed as one multi-source
// backward Dijkstra.
func DistancesToSet(g *graph.Graph, targets []graph.NodeID) []graph.Weight {
	return Dijkstra(g, graph.Backward, targets...).Dist
}
