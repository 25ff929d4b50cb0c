// Package graph provides the weighted directed graph substrate used by the
// KPJ algorithms: a compact CSR (compressed sparse row) adjacency store with
// both forward and reverse edge lists, non-negative integer edge weights,
// and an inverted index from category names to the node sets carrying them
// (the paper's "conceptual nodes", Section 2).
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node. Nodes are dense integers in [0, NumNodes).
type NodeID = int32

// Weight is an edge weight or path length. Weights are non-negative; path
// lengths are sums of weights and must not overflow int64.
type Weight = int64

// Infinity is the sentinel "unreachable" distance. It is far below
// math.MaxInt64 so that Infinity plus any realistic edge weight does not
// overflow.
const Infinity Weight = math.MaxInt64 / 4

// Direction selects which adjacency of a directed graph to traverse.
type Direction int

const (
	// Forward traverses edges in their natural direction.
	Forward Direction = iota
	// Backward traverses edges in reverse (used by algorithms that search
	// from the destination side, e.g. IterBound-SPT_I and SPT_P).
	Backward
)

// Reverse returns the opposite direction.
func (d Direction) Reverse() Direction {
	if d == Forward {
		return Backward
	}
	return Forward
}

func (d Direction) String() string {
	if d == Forward {
		return "forward"
	}
	return "backward"
}

// Edge is one half-edge as seen from a node: the node at the other end and
// the weight. For Forward adjacency To is the head of the edge; for
// Backward adjacency To is the tail.
type Edge struct {
	To NodeID
	W  Weight
}

// Graph is an immutable weighted directed graph with node categories.
// Build one with a Builder. All exported methods are safe for concurrent
// use once the graph is built and categories are no longer being added.
type Graph struct {
	n       int
	m       int
	outHead []int32
	outAdj  []Edge
	inHead  []int32
	inAdj   []Edge
	maxW    Weight // heaviest edge weight (0 for an edgeless graph)

	categories map[string][]NodeID
	catNames   []string // sorted, for deterministic iteration
}

// Errors returned by graph construction and lookups.
var (
	ErrNodeRange      = errors.New("graph: node id out of range")
	errNegativeWeight = errors.New("graph: negative edge weight")
	errWeightRange    = errors.New("graph: edge weight too large")
	ErrNoCategory     = errors.New("graph: unknown category")
	errEmptyCategory  = errors.New("graph: category has no nodes")
)

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.m }

// Out returns the outgoing edges of v. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) Out(v NodeID) []Edge {
	return g.outAdj[g.outHead[v]:g.outHead[v+1]]
}

// In returns the incoming edges of v as (tail, weight) pairs. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) In(v NodeID) []Edge {
	return g.inAdj[g.inHead[v]:g.inHead[v+1]]
}

// Edges returns the adjacency of v in the given direction: Out(v) for
// Forward, In(v) for Backward.
func (g *Graph) Edges(dir Direction, v NodeID) []Edge {
	if dir == Forward {
		return g.Out(v)
	}
	return g.In(v)
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v NodeID) int {
	return int(g.outHead[v+1] - g.outHead[v])
}

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v NodeID) int {
	return int(g.inHead[v+1] - g.inHead[v])
}

// MaxEdgeWeight returns the heaviest edge weight in the graph (0 when there
// are no edges). It feeds the flat file header and FromCSR's check; no
// search reads it.
func (g *Graph) MaxEdgeWeight() Weight { return g.maxW }

// HasEdge reports whether the directed edge (u, v) exists and, if so,
// returns its weight.
func (g *Graph) HasEdge(u, v NodeID) (Weight, bool) {
	adj := g.Out(u)
	if i, ok := findEdge(adj, v); ok {
		return adj[i].W, true
	}
	return 0, false
}

// findEdge binary-searches one sorted adjacency row for target to,
// returning its position (the insertion point when absent).
func findEdge(row []Edge, to NodeID) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid].To < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(row) && row[lo].To == to
}

// AddCategory registers (or replaces) a category: a named set of nodes, the
// paper's conceptual node. The node list is copied, deduplicated and sorted.
// AddCategory must not be called concurrently with queries.
func (g *Graph) AddCategory(name string, nodes []NodeID) error {
	if len(nodes) == 0 {
		return fmt.Errorf("%w: %q", errEmptyCategory, name)
	}
	set := make([]NodeID, len(nodes))
	copy(set, nodes)
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	out := set[:0]
	var prev NodeID = -1
	for _, v := range set {
		if v < 0 || int(v) >= g.n {
			return fmt.Errorf("%w: node %d in category %q (graph has %d nodes)", ErrNodeRange, v, name, g.n)
		}
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	if g.categories == nil {
		g.categories = make(map[string][]NodeID)
	}
	if _, exists := g.categories[name]; !exists {
		g.catNames = append(g.catNames, name)
		sort.Strings(g.catNames)
	}
	g.categories[name] = out
	return nil
}

// Category returns the sorted node set of a category. The returned slice
// must not be modified.
func (g *Graph) Category(name string) ([]NodeID, error) {
	nodes, ok := g.categories[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoCategory, name)
	}
	return nodes, nil
}

// Categories returns all category names in sorted order.
func (g *Graph) Categories() []string {
	out := make([]string, len(g.catNames))
	copy(out, g.catNames)
	return out
}

// Builder accumulates edges and produces an immutable Graph.
// The zero value is not usable; create one with NewBuilder.
type Builder struct {
	n     int
	tails []NodeID
	heads []NodeID
	ws    []Weight
	err   error
}

// NewBuilder returns a Builder for a graph with n nodes (ids 0..n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		return &Builder{err: fmt.Errorf("%w: negative node count %d", ErrNodeRange, n)}
	}
	return &Builder{n: n}
}

// AddEdge adds the directed edge (u, v) with weight w. Self-loops are
// permitted but never appear on simple paths of length > 0, so most callers
// avoid them. Errors are sticky and reported by Build.
func (b *Builder) AddEdge(u, v NodeID, w Weight) *Builder {
	if b.err != nil {
		return b
	}
	switch {
	case u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n:
		b.err = fmt.Errorf("%w: edge (%d,%d) with %d nodes", ErrNodeRange, u, v, b.n)
	case w < 0:
		b.err = fmt.Errorf("%w: edge (%d,%d) weight %d", errNegativeWeight, u, v, w)
	case w >= Infinity:
		b.err = fmt.Errorf("%w: edge (%d,%d) weight %d", errWeightRange, u, v, w)
	default:
		b.tails = append(b.tails, u)
		b.heads = append(b.heads, v)
		b.ws = append(b.ws, w)
	}
	return b
}

// AddBiEdge adds both directed edges (u, v) and (v, u) with weight w,
// modelling an undirected road segment.
func (b *Builder) AddBiEdge(u, v NodeID, w Weight) *Builder {
	return b.AddEdge(u, v, w).AddEdge(v, u, w)
}

// AddNode appends a fresh node and returns its id. Used to materialize
// points of interest that sit on an edge rather than a node (the paper's
// footnote 2).
func (b *Builder) AddNode() NodeID {
	id := NodeID(b.n)
	b.n++
	return id
}

// NumEdges returns the number of directed edges added so far.
func (b *Builder) NumEdges() int { return len(b.tails) }

// Build produces the immutable Graph. Parallel edges collapse to the
// lightest one: paths are identified by their node sequences (the
// convention of the k-shortest-path literature), so only the minimum
// weight per (u, v) pair is ever relevant. The Builder must not be used
// after Build returns.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.dedup()
	g := &Graph{n: b.n, m: len(b.tails)}
	g.outHead, g.outAdj = buildCSR(b.n, b.tails, b.heads, b.ws)
	g.inHead, g.inAdj = buildCSR(b.n, b.heads, b.tails, b.ws)
	for _, w := range b.ws {
		if w > g.maxW {
			g.maxW = w
		}
	}
	return g, nil
}

// dedup keeps, for every (u, v) pair, only the lightest edge.
func (b *Builder) dedup() {
	type key struct{ u, v NodeID }
	idx := make(map[key]int, len(b.tails))
	out := 0
	for i := range b.tails {
		k := key{b.tails[i], b.heads[i]}
		if j, seen := idx[k]; seen {
			if b.ws[i] < b.ws[j] {
				b.ws[j] = b.ws[i]
			}
			continue
		}
		b.tails[out], b.heads[out], b.ws[out] = b.tails[i], b.heads[i], b.ws[i]
		idx[k] = out
		out++
	}
	b.tails, b.heads, b.ws = b.tails[:out], b.heads[:out], b.ws[:out]
}

// buildCSR assembles a CSR adjacency keyed by `from`, with entries sorted by
// destination id within each node (deterministic iteration order).
func buildCSR(n int, from, to []NodeID, ws []Weight) ([]int32, []Edge) {
	head := make([]int32, n+1)
	for _, u := range from {
		head[u+1]++
	}
	for i := 0; i < n; i++ {
		head[i+1] += head[i]
	}
	adj := make([]Edge, len(from))
	next := make([]int32, n)
	copy(next, head[:n])
	for i, u := range from {
		adj[next[u]] = Edge{To: to[i], W: ws[i]}
		next[u]++
	}
	for v := 0; v < n; v++ {
		seg := adj[head[v]:head[v+1]]
		sort.Slice(seg, func(i, j int) bool {
			if seg[i].To != seg[j].To {
				return seg[i].To < seg[j].To
			}
			return seg[i].W < seg[j].W
		})
	}
	return head, adj
}
