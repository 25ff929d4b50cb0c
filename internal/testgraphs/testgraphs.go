// Package testgraphs provides shared graph fixtures for the test suites:
// the paper's running-example graph (Fig. 1) and seeded random graphs small
// enough for brute-force oracles.
package testgraphs

import (
	"math/rand"

	"kpj/internal/graph"
)

// Fig1 node names. The paper's v1..v15 map to ids 0..14; the nodes no
// test names are unexported.
const (
	V1 = graph.NodeID(iota)
	v2
	V3
	v4
	V5
	V6
	V7
	V8
	V9
	v10
	v11
	v12
	V13
	v14
	v15
)

// HotelCategory is the destination category of the paper's running example.
const HotelCategory = "H"

// Fig1 builds the running-example graph of the paper (Fig. 1): 15 nodes,
// bidirectional edges, nodes v4, v6, v7 in category "H" (hotel). The exact
// figure is only partially legible in the paper text; this instance is
// constructed to satisfy every worked example:
//
//	P1 = (v1,v8,v7) with length 5      (Example 2.1)
//	P2 = (v1,v3,v6) with length 6      (Examples 3.1, 4.3)
//	P3 = (v1,v3,v7) with length 7      (Examples 3.1, 5.1)
//	c(v3) = (v1,v3,v5,v6) length 7     (Section 3)
//	ω(v1,v3)=3, ω(v3,v7)=4, ω(v3,v4)=5 (Example 5.1)
//	v1 out-neighbours = {v2,v3,v8,v11} (Example 4.2)
//	v7 in-neighbours  = {v3,v8,v13,v14} (Example 5.3)
//
// So the top-5 result lengths for Q = {v1, "H", 5} are [5 6 7 7 8].
func Fig1() *graph.Graph {
	b := graph.NewBuilder(15)
	b.AddBiEdge(V1, v2, 1)
	b.AddBiEdge(V1, V8, 2)
	b.AddBiEdge(V1, V3, 3)
	b.AddBiEdge(V1, v11, 1)
	b.AddBiEdge(V8, V7, 3)
	b.AddBiEdge(V8, V9, 10)
	b.AddBiEdge(V8, v10, 8)
	b.AddBiEdge(v2, v10, 8)
	b.AddBiEdge(V9, v10, 1)
	b.AddBiEdge(V3, v4, 5)
	b.AddBiEdge(V3, V5, 2)
	b.AddBiEdge(V3, V6, 3)
	b.AddBiEdge(V3, V7, 4)
	b.AddBiEdge(V5, V6, 2)
	b.AddBiEdge(V6, v15, 2)
	b.AddBiEdge(v11, v12, 1)
	b.AddBiEdge(v12, V13, 1)
	b.AddBiEdge(V13, V7, 10)
	b.AddBiEdge(V13, v14, 10)
	b.AddBiEdge(v14, V7, 10)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	if err := g.AddCategory(HotelCategory, []graph.NodeID{v4, V6, V7}); err != nil {
		panic(err)
	}
	return g
}

// Fig1TopLengths is the expected sequence of path lengths for the KPJ query
// {v1, "H", 5} on Fig1.
var Fig1TopLengths = []graph.Weight{5, 6, 7, 7, 8}

// Random builds a seeded random directed graph with n nodes, roughly
// n*avgDeg edges, and weights in [1, maxW]. When undirected is set every
// edge is added in both directions. The graph may be disconnected; oracle
// tests must handle unreachable targets.
func Random(rng *rand.Rand, n, avgDeg int, maxW int64, undirected bool) *graph.Graph {
	b := graph.NewBuilder(n)
	edges := n * avgDeg
	for i := 0; i < edges; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		w := 1 + rng.Int63n(maxW)
		if undirected {
			b.AddBiEdge(u, v, w)
		} else {
			b.AddEdge(u, v, w)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// RandomConnected builds a seeded random graph guaranteed to be strongly
// connected: a random cycle through all nodes plus extra random edges.
func RandomConnected(rng *rand.Rand, n, extraEdges int, maxW int64) *graph.Graph {
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		u := graph.NodeID(perm[i])
		v := graph.NodeID(perm[(i+1)%n])
		b.AddEdge(u, v, 1+rng.Int63n(maxW))
	}
	for i := 0; i < extraEdges; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v, 1+rng.Int63n(maxW))
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// RandomCategory samples a category of the given size over g's nodes and
// registers it under name, returning the member set.
func RandomCategory(rng *rand.Rand, g *graph.Graph, name string, size int) []graph.NodeID {
	n := g.NumNodes()
	if size > n {
		size = n
	}
	perm := rng.Perm(n)
	nodes := make([]graph.NodeID, size)
	for i := 0; i < size; i++ {
		nodes[i] = graph.NodeID(perm[i])
	}
	if err := g.AddCategory(name, nodes); err != nil {
		panic(err)
	}
	return nodes
}
