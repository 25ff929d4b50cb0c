// Package sssp computes single-source (and multi-source) shortest
// distances with Dijkstra's algorithm on the monotone radix queue. These
// are the building blocks for landmark preprocessing, the workload
// generator's distance-percentile studies, and test oracles.
package sssp

import (
	"fmt"

	"kpj/internal/graph"
	"kpj/internal/pqueue"
)

// Dijkstra returns the shortest distances over g in the given direction
// from the source set, graph.Infinity for unreached nodes. With dir ==
// Forward, distances grow along out-edges (classic SSSP from the
// sources); with dir == Backward, dist[v] is the distance from v to the
// nearest source following forward edges (the search itself walks
// in-edges). It panics if sources is empty or out of range.
func Dijkstra(g *graph.Graph, dir graph.Direction, sources ...graph.NodeID) []graph.Weight {
	offsets := make([]graph.Weight, len(sources))
	return DijkstraOffsets(g, dir, sources, offsets)
}

// DijkstraOffsets is Dijkstra with a per-source initial distance, which
// models the zero/ω-weight virtual-node reductions of the paper (Sections 3
// and 6): a virtual node connected to source i with weight offsets[i].
func DijkstraOffsets(g *graph.Graph, dir graph.Direction, sources []graph.NodeID, offsets []graph.Weight) []graph.Weight {
	if len(sources) == 0 {
		panic("sssp: no sources")
	}
	if len(sources) != len(offsets) {
		panic(fmt.Sprintf("sssp: %d sources but %d offsets", len(sources), len(offsets)))
	}
	n := g.NumNodes()
	dist := make([]graph.Weight, n)
	for i := range dist {
		dist[i] = graph.Infinity
	}
	for i, s := range sources {
		if s < 0 || int(s) >= n {
			panic(fmt.Sprintf("sssp: source %d out of range [0,%d)", s, n))
		}
		if offsets[i] < dist[s] {
			dist[s] = offsets[i]
		}
	}
	// Lazy insertion: an improved node is pushed again and its stale
	// duplicates are skipped by the distance check.
	q := pqueue.NewBucketQueue()
	for _, s := range sources {
		q.Push(s, dist[s])
	}
	for q.Len() > 0 {
		v, d := q.Pop()
		if d > dist[v] {
			continue
		}
		for _, e := range g.Edges(dir, v) {
			if nd := d + e.W; nd < dist[e.To] {
				dist[e.To] = nd
				q.Push(e.To, nd)
			}
		}
	}
	return dist
}

// DistancesToSet returns, for every node v, the shortest distance from v to
// the nearest node of targets (following forward edges). This is δ(v, t) in
// the paper's virtual-target graph G_Q, computed as one multi-source
// backward Dijkstra.
func DistancesToSet(g *graph.Graph, targets []graph.NodeID) []graph.Weight {
	return Dijkstra(g, graph.Backward, targets...)
}
