// Package kpj computes top-k shortest path joins (KPJ): the k shortest
// simple paths from a source node — or a source category — to any node of
// a destination category in a weighted directed graph.
//
// It implements the algorithms of "Efficiently Computing Top-K Shortest
// Path Join" (Chang, Lin, Qin, Yu, Pei; EDBT 2015): the best-first
// subspace paradigm, the iteratively bounding approach, the partial and
// incremental shortest-path-tree indexes (the paper's IterBound-SPT_P and
// IterBound-SPT_I), and the deviation baselines DA and DA-SPT for
// comparison. Classical k-shortest-path (KSP) queries are the special case
// of a single destination node, and GKPJ queries (category to category)
// are supported through virtual-source reduction.
//
// Typical use:
//
//	g, _ := kpj.NewBuilder(n). … .Build()
//	g.AddCategory("hotel", hotelNodes)
//	ix, _ := kpj.BuildIndex(g, 16, 1) // optional landmark index
//	paths, _ := g.TopKJoin(src, "hotel", 10, &kpj.Options{Index: ix})
package kpj

import (
	"io"
	"sync"

	"kpj/internal/core"
	"kpj/internal/graph"
)

// NodeID identifies a node: dense integers in [0, NumNodes).
type NodeID = graph.NodeID

// Weight is an edge weight or path length (non-negative int64).
type Weight = graph.Weight

// Graph is an immutable weighted directed graph with node categories.
// Queries are safe for concurrent use; AddCategory is not.
type Graph struct {
	g *graph.Graph
	// ws recycles query workspaces (the O(n) scratch arrays) across the
	// single-query API and batch workers, so the server's hot path stops
	// paying an O(n) allocation per request.
	ws sync.Pool
}

// newGraph wraps an internal graph and wires up its workspace pool.
func newGraph(ig *graph.Graph) *Graph {
	g := &Graph{g: ig}
	g.ws.New = func() any { return core.NewWorkspace(ig.NumNodes() + 2) }
	return g
}

// Builder accumulates edges for a Graph. Create one with NewBuilder; the
// zero value is not usable.
type Builder struct {
	b *graph.Builder
}

// NewBuilder returns a Builder for a graph with n nodes (ids 0..n-1).
func NewBuilder(n int) *Builder { return &Builder{b: graph.NewBuilder(n)} }

// AddEdge adds the directed edge (u, v) with non-negative weight w.
// Parallel edges collapse to the lightest at Build time. Errors are sticky
// and reported by Build.
func (b *Builder) AddEdge(u, v NodeID, w Weight) *Builder {
	b.b.AddEdge(u, v, w)
	return b
}

// AddBiEdge adds both directions of an undirected segment.
func (b *Builder) AddBiEdge(u, v NodeID, w Weight) *Builder {
	b.b.AddBiEdge(u, v, w)
	return b
}

// SplitBiEdge models a POI sitting on the undirected segment (u, v) at
// distance du from u and dv from v: it allocates the POI node, connects it
// to both endpoints, and returns its id (paper footnote 2: "add a new node
// w to G and connect w with u and v to replace (u, v)"). The caller simply
// does not add the original (u, v) segment.
func (b *Builder) SplitBiEdge(u, v NodeID, du, dv Weight) NodeID {
	w := b.b.AddNode()
	b.b.AddBiEdge(u, w, du)
	b.b.AddBiEdge(w, v, dv)
	return w
}

// Build produces the immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	g, err := b.b.Build()
	if err != nil {
		return nil, err
	}
	return newGraph(g), nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.g.NumNodes() }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.g.NumEdges() }

// AddCategory registers (or replaces) a named node set — a conceptual node
// usable as a query source or destination. Nodes are copied, deduplicated
// and sorted.
func (g *Graph) AddCategory(name string, nodes []NodeID) error {
	return g.g.AddCategory(name, nodes)
}

// Category returns the sorted node set of a category. The returned slice
// must not be modified.
func (g *Graph) Category(name string) ([]NodeID, error) { return g.g.Category(name) }

// Categories returns all category names in sorted order.
func (g *Graph) Categories() []string { return g.g.Categories() }

// ReadGraph parses a DIMACS shortest-path (".gr") file.
func ReadGraph(r io.Reader) (*Graph, error) {
	g, err := graph.ReadGr(r)
	if err != nil {
		return nil, err
	}
	return newGraph(g), nil
}

// ReadCategories parses "<category> <node>" lines and registers them on g.
func (g *Graph) ReadCategories(r io.Reader) error { return graph.ReadCategories(r, g.g) }

// Unwrap exposes the internal graph for the command-line tools and
// benchmarks inside this module. External users cannot name the returned
// type and should ignore this method.
func (g *Graph) Unwrap() *graph.Graph { return g.g }
