package kpj_test

import (
	"fmt"
	"log"

	"kpj"
)

// ExampleGraph_TopKJoin runs the paper's running example (Fig. 1): the
// top-3 shortest paths from v1 to the hotel category.
func ExampleGraph_TopKJoin() {
	b := kpj.NewBuilder(15)
	type edge struct {
		u, v kpj.NodeID
		w    kpj.Weight
	}
	for _, e := range []edge{
		{0, 1, 1}, {0, 7, 2}, {0, 2, 3}, {0, 10, 1},
		{7, 6, 3}, {7, 8, 10}, {7, 9, 8}, {1, 9, 8}, {8, 9, 1},
		{2, 3, 5}, {2, 4, 2}, {2, 5, 3}, {2, 6, 4}, {4, 5, 2},
		{5, 14, 2}, {10, 11, 1}, {11, 12, 1}, {12, 6, 10},
		{12, 13, 10}, {13, 6, 10},
	} {
		b.AddBiEdge(e.u, e.v, e.w)
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	if err := g.AddCategory("hotel", []kpj.NodeID{3, 5, 6}); err != nil {
		log.Fatal(err)
	}

	paths, err := g.TopKJoin(0, "hotel", 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range paths {
		fmt.Printf("P%d length=%d nodes=%v\n", i+1, p.Length, p.Nodes)
	}
	// Output:
	// P1 length=5 nodes=[0 7 6]
	// P2 length=6 nodes=[0 2 5]
	// P3 length=7 nodes=[0 2 6]
}

// ExampleBuildIndex runs the Fig. 1 query of ExampleGraph_TopKJoin with a
// landmark index: the lower bounds prune the search, the answer is the same.
func ExampleBuildIndex() {
	g, err := fig1Graph() // ExampleGraph_TopKJoin's graph and "hotel" category
	if err != nil {
		log.Fatal(err)
	}
	ix, err := kpj.BuildIndex(g, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	paths, err := g.TopKJoin(0, "hotel", 3, &kpj.Options{Index: ix})
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range paths {
		fmt.Printf("P%d length=%d nodes=%v\n", i+1, p.Length, p.Nodes)
	}
	// Output:
	// P1 length=5 nodes=[0 7 6]
	// P2 length=6 nodes=[0 2 5]
	// P3 length=7 nodes=[0 2 6]
}

// ExampleGraph_TopK shows the classical k-shortest-paths special case.
func ExampleGraph_TopK() {
	g, err := kpj.NewBuilder(4).
		AddEdge(0, 1, 1).AddEdge(1, 3, 1).
		AddEdge(0, 2, 1).AddEdge(2, 3, 2).
		AddEdge(0, 3, 4).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	paths, err := g.TopK(0, 3, 3, &kpj.Options{Algorithm: kpj.BestFirst})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range paths {
		fmt.Println(p.Length, p.Nodes)
	}
	// Output:
	// 2 [0 1 3]
	// 3 [0 2 3]
	// 4 [0 3]
}

// ExampleGraph_TopKCategoryJoin runs a GKPJ query: both endpoints are
// categories, reduced internally through a virtual source (paper §6).
func ExampleGraph_TopKCategoryJoin() {
	g, err := kpj.NewBuilder(6).
		AddBiEdge(0, 2, 1).AddBiEdge(1, 2, 2).
		AddBiEdge(2, 3, 3).AddBiEdge(3, 4, 1).AddBiEdge(3, 5, 2).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	if err := g.AddCategory("from", []kpj.NodeID{0, 1}); err != nil {
		log.Fatal(err)
	}
	if err := g.AddCategory("to", []kpj.NodeID{4, 5}); err != nil {
		log.Fatal(err)
	}
	paths, err := g.TopKCategoryJoin("from", "to", 2, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range paths {
		fmt.Println(p.Length, p.Nodes)
	}
	// Output:
	// 5 [0 2 3 4]
	// 6 [0 2 3 5]
}
