package graph

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := mustBuild(t, NewBuilder(0))
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("got %d nodes %d edges, want 0/0", g.NumNodes(), g.NumEdges())
	}
}

func TestSingleNode(t *testing.T) {
	g := mustBuild(t, NewBuilder(1))
	if got := g.Out(0); len(got) != 0 {
		t.Fatalf("Out(0) = %v, want empty", got)
	}
	if got := g.In(0); len(got) != 0 {
		t.Fatalf("In(0) = %v, want empty", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name string
		b    *Builder
		want error
	}{
		{"negative node count", NewBuilder(-1), ErrNodeRange},
		{"node out of range", NewBuilder(2).AddEdge(0, 2, 1), ErrNodeRange},
		{"negative tail", NewBuilder(2).AddEdge(-1, 0, 1), ErrNodeRange},
		{"negative weight", NewBuilder(2).AddEdge(0, 1, -1), errNegativeWeight},
		{"huge weight", NewBuilder(2).AddEdge(0, 1, Infinity), errWeightRange},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.b.Build(); !errors.Is(err, tt.want) {
				t.Fatalf("Build err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestBuilderErrorIsSticky(t *testing.T) {
	b := NewBuilder(2).AddEdge(0, 5, 1).AddEdge(0, 1, 1)
	if _, err := b.Build(); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("sticky error lost: %v", err)
	}
}

func TestAdjacency(t *testing.T) {
	g := mustBuild(t, NewBuilder(4).
		AddEdge(0, 1, 5).
		AddEdge(0, 2, 3).
		AddEdge(2, 1, 1).
		AddEdge(1, 3, 2).
		AddEdge(3, 0, 7))
	wantOut := map[NodeID][]Edge{
		0: {{1, 5}, {2, 3}},
		1: {{3, 2}},
		2: {{1, 1}},
		3: {{0, 7}},
	}
	for v, want := range wantOut {
		got := g.Out(v)
		if len(got) != len(want) {
			t.Fatalf("Out(%d) = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Out(%d)[%d] = %v, want %v", v, i, got[i], want[i])
			}
		}
	}
	wantIn := map[NodeID][]Edge{
		0: {{3, 7}},
		1: {{0, 5}, {2, 1}},
		2: {{0, 3}},
		3: {{1, 2}},
	}
	for v, want := range wantIn {
		got := g.In(v)
		if len(got) != len(want) {
			t.Fatalf("In(%d) = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("In(%d)[%d] = %v, want %v", v, i, got[i], want[i])
			}
		}
	}
	if d := g.OutDegree(0); d != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", d)
	}
	if d := g.InDegree(1); d != 2 {
		t.Errorf("InDegree(1) = %d, want 2", d)
	}
}

func TestEdgesDirection(t *testing.T) {
	g := mustBuild(t, NewBuilder(2).AddEdge(0, 1, 9))
	if got := g.Edges(Forward, 0); len(got) != 1 || got[0] != (Edge{1, 9}) {
		t.Fatalf("Edges(Forward,0) = %v", got)
	}
	if got := g.Edges(Backward, 1); len(got) != 1 || got[0] != (Edge{0, 9}) {
		t.Fatalf("Edges(Backward,1) = %v", got)
	}
	if got := g.Edges(Backward, 0); len(got) != 0 {
		t.Fatalf("Edges(Backward,0) = %v, want empty", got)
	}
}

func TestDirectionReverse(t *testing.T) {
	if Forward.Reverse() != Backward || Backward.Reverse() != Forward {
		t.Fatal("Direction.Reverse is wrong")
	}
	if Forward.String() != "forward" || Backward.String() != "backward" {
		t.Fatal("Direction.String is wrong")
	}
}

func TestParallelEdgesCollapse(t *testing.T) {
	g := mustBuild(t, NewBuilder(2).AddEdge(0, 1, 9).AddEdge(0, 1, 4).AddEdge(0, 1, 6))
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (parallel edges collapse)", g.NumEdges())
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 4 {
		t.Fatalf("HasEdge = (%d,%v), want (4,true)", w, ok)
	}
	if _, ok := g.HasEdge(1, 0); ok {
		t.Fatal("HasEdge(1,0) = true, want false")
	}
	if len(g.In(1)) != 1 || g.In(1)[0].W != 4 {
		t.Fatalf("In(1) = %v, want single weight-4 edge", g.In(1))
	}
}

func TestCategories(t *testing.T) {
	g := mustBuild(t, NewBuilder(5))
	if err := g.AddCategory("H", []NodeID{3, 1, 3}); err != nil {
		t.Fatalf("AddCategory: %v", err)
	}
	nodes, err := g.Category("H")
	if err != nil {
		t.Fatalf("Category: %v", err)
	}
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 3 {
		t.Fatalf("Category(H) = %v, want [1 3] (sorted, deduped)", nodes)
	}
	if !g.InCategory("H", 3) || g.InCategory("H", 2) || g.InCategory("X", 3) {
		t.Fatal("InCategory misbehaves")
	}
	if _, err := g.Category("missing"); !errors.Is(err, ErrNoCategory) {
		t.Fatalf("missing category err = %v", err)
	}
	if err := g.AddCategory("bad", nil); !errors.Is(err, errEmptyCategory) {
		t.Fatalf("empty category err = %v", err)
	}
	if err := g.AddCategory("oob", []NodeID{9}); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("out-of-range category err = %v", err)
	}
}

func TestCategoriesSortedNames(t *testing.T) {
	g := mustBuild(t, NewBuilder(3))
	for _, name := range []string{"zebra", "apple", "mango"} {
		if err := g.AddCategory(name, []NodeID{0}); err != nil {
			t.Fatal(err)
		}
	}
	got := g.Categories()
	if !sort.StringsAreSorted(got) || len(got) != 3 {
		t.Fatalf("Categories() = %v, want 3 sorted names", got)
	}
	// Replacing a category must not duplicate its name.
	if err := g.AddCategory("mango", []NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := g.Categories(); len(got) != 3 {
		t.Fatalf("Categories() after replace = %v", got)
	}
	nodes, _ := g.Category("mango")
	if len(nodes) != 2 {
		t.Fatalf("replaced category = %v, want [1 2]", nodes)
	}
}

// CSR invariant: every edge added appears exactly once in Out and once in
// In, and adjacency lists are sorted by destination id.
func TestCSRInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	check := func(nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%50) + 1
		m := int(mRaw % 400)
		b := NewBuilder(n)
		type pair struct{ u, v NodeID }
		ref := map[pair]Weight{}
		for i := 0; i < m; i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			w := Weight(rng.Intn(1000))
			b.AddEdge(u, v, w)
			if old, ok := ref[pair{u, v}]; !ok || w < old {
				ref[pair{u, v}] = w
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		if g.NumEdges() != len(ref) {
			return false
		}
		outCount, inCount := 0, 0
		for v := 0; v < n; v++ {
			out := g.Out(NodeID(v))
			outCount += len(out)
			for i := 1; i < len(out); i++ {
				if out[i].To <= out[i-1].To {
					return false // sorted and strictly deduplicated
				}
			}
			inCount += len(g.In(NodeID(v)))
		}
		if outCount != len(ref) || inCount != len(ref) {
			return false
		}
		// Every (u,v) pair must resolve to its minimum weight in both
		// adjacencies.
		for e, w := range ref {
			if got, ok := g.HasEdge(e.u, e.v); !ok || got != w {
				return false
			}
			foundIn := false
			for _, ie := range g.In(e.v) {
				if ie.To == e.u && ie.W == w {
					foundIn = true
				}
			}
			if !foundIn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	g := mustBuild(t, NewBuilder(4).AddEdge(0, 1, 2).AddEdge(1, 2, 8).AddEdge(2, 0, 5))
	s := Summarize(g)
	if s.Nodes != 4 || s.Edges != 3 || s.MinW != 2 || s.MaxW != 8 || s.SumW != 15 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.Isolated != 1 { // node 3
		t.Fatalf("Isolated = %d, want 1", s.Isolated)
	}
	if s.MaxOutDeg != 1 {
		t.Fatalf("MaxOutDeg = %d, want 1", s.MaxOutDeg)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(mustBuild(t, NewBuilder(2)))
	if s.MinW != 0 || s.MaxW != 0 || s.Isolated != 2 {
		t.Fatalf("Summarize empty = %+v", s)
	}
}

func TestStronglyConnectedFrom(t *testing.T) {
	cyc := mustBuild(t, NewBuilder(3).AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(2, 0, 1))
	if !stronglyConnectedFrom(cyc, 0) {
		t.Fatal("cycle should be strongly connected")
	}
	dag := mustBuild(t, NewBuilder(3).AddEdge(0, 1, 1).AddEdge(1, 2, 1))
	if stronglyConnectedFrom(dag, 0) {
		t.Fatal("path graph is not strongly connected")
	}
	one := mustBuild(t, NewBuilder(1))
	if !stronglyConnectedFrom(one, 0) {
		t.Fatal("single node is trivially strongly connected")
	}
}

// stronglyConnectedFrom reports whether every node is reachable from root
// AND root is reachable from every node — i.e. all nodes lie in root's
// strongly connected component. It runs two breadth-first traversals.
func stronglyConnectedFrom(g *Graph, root NodeID) bool {
	return reachesAll(g, Forward, root) && reachesAll(g, Backward, root)
}

func reachesAll(g *Graph, dir Direction, root NodeID) bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	queue := make([]NodeID, 0, n)
	seen[root] = true
	queue = append(queue, root)
	count := 1
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range g.Edges(dir, v) {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				queue = append(queue, e.To)
			}
		}
	}
	return count == n
}
