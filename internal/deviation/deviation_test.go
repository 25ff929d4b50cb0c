// Package deviation holds no code, only the referee suite of the deviation
// baselines. DA and DA-SPT (paper Section 3) are the eager rows of core's
// variant table; these tests run them by name against the Fig. 1 example,
// the brute-force oracle and the lazy BestFirst row, so a change to the
// shared engine that breaks only the eager rows fails here under the
// baselines' own names.
package deviation

import (
	"math/rand"
	"reflect"
	"testing"

	"kpj/internal/bruteforce"
	"kpj/internal/core"
	"kpj/internal/graph"
	"kpj/internal/testgraphs"
)

// baselines maps the deviation baselines' paper names to their core rows.
var baselines = map[string]core.Func{"DA": core.DA, "DA-SPT": core.DASPT}

func lengthsOf(paths []core.Path) []graph.Weight {
	out := make([]graph.Weight, len(paths))
	for i, p := range paths {
		out[i] = p.Length
	}
	return out
}

func TestFig1Baselines(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	q := core.Query{Sources: []graph.NodeID{testgraphs.V1}, Targets: hotels, K: 5}
	for name, fn := range baselines {
		t.Run(name, func(t *testing.T) {
			paths, err := fn(g, q, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := lengthsOf(paths); !reflect.DeepEqual(got, testgraphs.Fig1TopLengths) {
				t.Fatalf("lengths = %v, want %v", got, testgraphs.Fig1TopLengths)
			}
		})
	}
}

// Example 3.1 of the paper: the first three paths of Q = {v1, "H", 3} are
// (v1,v8,v7), (v1,v3,v6), and a length-7 path.
func TestFig1PaperExample31(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	q := core.Query{Sources: []graph.NodeID{testgraphs.V1}, Targets: hotels, K: 3}
	paths, err := core.DA(g, q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths", len(paths))
	}
	if !reflect.DeepEqual(paths[0].Nodes, []graph.NodeID{testgraphs.V1, testgraphs.V8, testgraphs.V7}) {
		t.Fatalf("P1 = %v", paths[0].Nodes)
	}
	if !reflect.DeepEqual(paths[1].Nodes, []graph.NodeID{testgraphs.V1, testgraphs.V3, testgraphs.V6}) {
		t.Fatalf("P2 = %v", paths[1].Nodes)
	}
	if paths[2].Length != 7 {
		t.Fatalf("P3 length = %d, want 7", paths[2].Length)
	}
}

func TestBaselinesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(9)
		g := testgraphs.Random(rng, n, 3, 9, trial%2 == 0)
		targets := testgraphs.RandomCategory(rng, g, "T", 1+rng.Intn(3))
		var sources []graph.NodeID
		if trial%4 == 0 {
			sources = testgraphs.RandomCategory(rng, g, "S", 1+rng.Intn(3))
		} else {
			sources = []graph.NodeID{graph.NodeID(rng.Intn(n))}
		}
		k := 1 + rng.Intn(10)
		q := core.Query{Sources: sources, Targets: targets, K: k}
		want := bruteforce.Lengths(bruteforce.TopK(g, sources, targets, k))
		for name, fn := range baselines {
			paths, err := fn(g, q, core.Options{})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if got := lengthsOf(paths); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s (n=%d k=%d S=%v T=%v):\n got %v\nwant %v",
					trial, name, n, k, sources, targets, got, want)
			}
		}
	}
}

// The baselines and the contributed algorithms must agree on graphs beyond
// the oracle's reach.
func TestBaselinesAgreeWithCore(t *testing.T) {
	rng := rand.New(rand.NewSource(1000))
	g := testgraphs.RandomConnected(rng, 300, 900, 40)
	targets := testgraphs.RandomCategory(rng, g, "T", 5)
	for _, k := range []int{1, 10, 30} {
		q := core.Query{Sources: []graph.NodeID{2}, Targets: targets, K: k}
		ref, err := core.BestFirst(g, q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := lengthsOf(ref)
		for name, fn := range baselines {
			paths, err := fn(g, q, core.Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := lengthsOf(paths); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d:\n got %v\nwant %v", name, k, got, want)
			}
		}
	}
}

func TestBaselinesUnreachableAndSparse(t *testing.T) {
	g, err := graph.NewBuilder(4).AddEdge(0, 1, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Sources: []graph.NodeID{0}, Targets: []graph.NodeID{3}, K: 2}
	for name, fn := range baselines {
		paths, err := fn(g, q, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(paths) != 0 {
			t.Fatalf("%s: got %v, want none", name, paths)
		}
	}
}

func TestBaselineValidation(t *testing.T) {
	g := testgraphs.Fig1()
	for name, fn := range baselines {
		if _, err := fn(g, core.Query{K: 1}, core.Options{}); err == nil {
			t.Fatalf("%s accepted an invalid query", name)
		}
	}
}
