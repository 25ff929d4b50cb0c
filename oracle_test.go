package kpj_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"kpj"
	"kpj/internal/bruteforce"
	"kpj/internal/gen"
	"kpj/internal/graph"
)

// This file is the cross-algorithm oracle suite: every engine, on a few
// hundred randomized small graphs and every query shape (KSP, KPJ, GKPJ,
// k exceeding the path count, unreachable targets), must agree with
// exhaustive enumeration. Graphs stay small enough for internal/bruteforce
// to enumerate all simple paths; the engines don't know that.

// oracleCase is one (graph, query) pair with both views of the same graph:
// the public one the engines query and the internal one the oracle walks.
type oracleCase struct {
	name    string
	g       *kpj.Graph
	og      *graph.Graph
	sources []kpj.NodeID
	targets []kpj.NodeID
	k       int
	index   bool // query with a landmark index
}

// parseBoth materializes one edge list as both graph representations by
// round-tripping the DIMACS form, so the node ids are identical by
// construction (and every oracle case doubles as a parser exercise).
func parseBoth(t *testing.T, n int, edges [][3]int64) (*kpj.Graph, *graph.Graph) {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "p sp %d %d\n", n, len(edges))
	for _, e := range edges {
		fmt.Fprintf(&buf, "a %d %d %d\n", e[0]+1, e[1]+1, e[2])
	}
	g, err := kpj.ReadGraph(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	og, err := graph.ReadGr(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadGr: %v", err)
	}
	return g, og
}

// edgesOf flattens an internal graph back to an edge list.
func edgesOf(og *graph.Graph) [][3]int64 {
	var edges [][3]int64
	for u := 0; u < og.NumNodes(); u++ {
		for _, e := range og.Out(graph.NodeID(u)) {
			edges = append(edges, [3]int64{int64(u), int64(e.To), int64(e.W)})
		}
	}
	return edges
}

// pickDistinct draws m distinct node ids from [0, n).
func pickDistinct(rng *rand.Rand, n, m int) []kpj.NodeID {
	perm := rng.Perm(n)
	out := make([]kpj.NodeID, m)
	for i := range out {
		out[i] = kpj.NodeID(perm[i])
	}
	return out
}

// oracleCaseFor builds the i-th randomized case. Five families rotate:
// road-grid KSP, road-grid KPJ, road-grid GKPJ, sparse digraph with k far
// beyond the path count, and a layered digraph where some (or all)
// targets are unreachable.
func oracleCaseFor(t *testing.T, i int) oracleCase {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	c := oracleCase{name: fmt.Sprintf("case%03d", i), index: i%2 == 0}
	switch i % 5 {
	case 0, 1, 2: // road grids, the paper's graph class
		w, h := 4+i%2, 4
		og, err := gen.Road(gen.RoadConfig{
			Width: w, Height: h, Seed: int64(i),
			KeepFrac: 0.6 + 0.2*rng.Float64(),
		})
		if err != nil {
			t.Fatalf("gen.Road: %v", err)
		}
		c.g, c.og = parseBoth(t, og.NumNodes(), edgesOf(og))
		n := og.NumNodes()
		switch i % 5 {
		case 0: // KSP: single source, single target
			c.sources = pickDistinct(rng, n, 1)
			c.targets = pickDistinct(rng, n, 1)
			c.k = 1 + rng.Intn(8)
		case 1: // KPJ: single source, target category
			c.sources = pickDistinct(rng, n, 1)
			c.targets = pickDistinct(rng, n, 2+rng.Intn(4))
			c.k = 1 + rng.Intn(10)
		default: // GKPJ: both sides are sets (may overlap)
			c.sources = pickDistinct(rng, n, 2+rng.Intn(3))
			c.targets = pickDistinct(rng, n, 2+rng.Intn(4))
			c.k = 1 + rng.Intn(12)
		}
	case 3: // sparse digraph, k far beyond the number of simple paths
		n := 10 + rng.Intn(8)
		var edges [][3]int64
		for u := 0; u < n; u++ {
			for d := 0; d < 2; d++ {
				v := rng.Intn(n)
				if v != u {
					edges = append(edges, [3]int64{int64(u), int64(v), int64(1 + rng.Intn(9))})
				}
			}
		}
		c.g, c.og = parseBoth(t, n, edges)
		c.sources = pickDistinct(rng, n, 1+rng.Intn(2))
		c.targets = pickDistinct(rng, n, 1+rng.Intn(2))
		c.k = 10000 // certainly more than the paths that exist
	default: // layered DAG queried against the arrow: unreachable targets
		n := 12 + rng.Intn(8)
		var edges [][3]int64
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, [3]int64{int64(u), int64(v), int64(1 + rng.Intn(9))})
				}
			}
		}
		c.g, c.og = parseBoth(t, n, edges)
		// Sources from the high end, targets from the low end: most
		// targets (often all) are unreachable in a DAG.
		c.sources = []kpj.NodeID{kpj.NodeID(n - 1 - rng.Intn(3))}
		c.targets = []kpj.NodeID{kpj.NodeID(rng.Intn(3)), kpj.NodeID(rng.Intn(n))}
		c.k = 1 + rng.Intn(6)
	}
	return c
}

// checkAgainstOracle runs every engine at sequential and parallel settings
// and verifies each result against the exhaustive answer: the length
// sequence must match exactly, every returned path must be a real simple
// path of the stated length with valid endpoints, and when k covers every
// existing path the returned path sets must coincide exactly.
func checkAgainstOracle(t *testing.T, c oracleCase) {
	ogSources := make([]graph.NodeID, len(c.sources))
	for i, s := range c.sources {
		ogSources[i] = graph.NodeID(s)
	}
	ogTargets := make([]graph.NodeID, len(c.targets))
	for i, tg := range c.targets {
		ogTargets[i] = graph.NodeID(tg)
	}
	want := bruteforce.TopK(c.og, ogSources, ogTargets, c.k)
	wantSet := map[string]bool{}
	for _, p := range want {
		wantSet[fmt.Sprint(p.Nodes)] = true
	}
	allPaths := len(want) < c.k // k covered everything: set must match too

	var opt kpj.Options
	if c.index {
		ix, err := kpj.BuildIndex(c.g, 3, 7)
		if err != nil {
			t.Fatalf("BuildIndex: %v", err)
		}
		opt.Index = ix
	}
	for _, alg := range allAlgorithms {
		for _, par := range []int{1, 4} {
			o := opt
			o.Algorithm = alg
			o.Parallelism = par
			got, err := c.g.TopKJoinSets(c.sources, c.targets, c.k, &o)
			if err != nil {
				t.Fatalf("%s/p%d: %v", alg, par, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/p%d: %d paths, oracle has %d", alg, par, len(got), len(want))
			}
			for i, p := range got {
				if p.Length != want[i].Length {
					t.Fatalf("%s/p%d: path %d length %d, oracle %d", alg, par, i, p.Length, want[i].Length)
				}
				validateOraclePath(t, c, alg, par, p)
				if allPaths && !wantSet[fmt.Sprint(p.Nodes)] {
					t.Fatalf("%s/p%d: path %v not in the exhaustive set", alg, par, p.Nodes)
				}
			}
			if allPaths {
				seen := map[string]bool{}
				for _, p := range got {
					key := fmt.Sprint(p.Nodes)
					if seen[key] {
						t.Fatalf("%s/p%d: duplicate path %v", alg, par, p.Nodes)
					}
					seen[key] = true
				}
			}
		}
	}
}

// validateOraclePath checks one returned path against the graph itself:
// endpoints in the query sets, simple, every hop a real edge, stated
// length equal to the edge-weight sum.
func validateOraclePath(t *testing.T, c oracleCase, alg kpj.Algorithm, par int, p kpj.Path) {
	t.Helper()
	if len(p.Nodes) == 0 {
		t.Fatalf("%s/p%d: empty path", alg, par)
	}
	inSet := func(set []kpj.NodeID, v kpj.NodeID) bool {
		for _, s := range set {
			if s == v {
				return true
			}
		}
		return false
	}
	if !inSet(c.sources, p.Nodes[0]) {
		t.Fatalf("%s/p%d: path starts at %d, not a source", alg, par, p.Nodes[0])
	}
	if !inSet(c.targets, p.Nodes[len(p.Nodes)-1]) {
		t.Fatalf("%s/p%d: path ends at %d, not a target", alg, par, p.Nodes[len(p.Nodes)-1])
	}
	seen := map[kpj.NodeID]bool{}
	var sum kpj.Weight
	for i, v := range p.Nodes {
		if seen[v] {
			t.Fatalf("%s/p%d: node %d repeats: not simple: %v", alg, par, v, p.Nodes)
		}
		seen[v] = true
		if i == 0 {
			continue
		}
		w, ok := edgeWeight(c.og, p.Nodes[i-1], v)
		if !ok {
			t.Fatalf("%s/p%d: no edge %d->%d in %v", alg, par, p.Nodes[i-1], v, p.Nodes)
		}
		sum += w
	}
	if sum != p.Length {
		t.Fatalf("%s/p%d: stated length %d, edges sum to %d", alg, par, p.Length, sum)
	}
}

// edgeWeight returns the minimum-weight u->v edge (parallel edges allowed).
func edgeWeight(og *graph.Graph, u, v kpj.NodeID) (kpj.Weight, bool) {
	best, found := kpj.Weight(0), false
	for _, e := range og.Out(graph.NodeID(u)) {
		if kpj.NodeID(e.To) == v && (!found || kpj.Weight(e.W) < best) {
			best, found = kpj.Weight(e.W), true
		}
	}
	return best, found
}

// TestOracleSuite is the main cross-algorithm conformance sweep.
func TestOracleSuite(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 30
	}
	for i := 0; i < cases; i++ {
		c := oracleCaseFor(t, i)
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			checkAgainstOracle(t, c)
		})
	}
}

// TestOracleSelfLoopSources: a source that is itself a target must yield
// the zero-length single-node path first, from every engine.
func TestOracleSelfLoopSources(t *testing.T) {
	og, err := gen.Road(gen.RoadConfig{Width: 4, Height: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	g, internal := parseBoth(t, og.NumNodes(), edgesOf(og))
	c := oracleCase{
		name: "overlap", g: g, og: internal,
		sources: []kpj.NodeID{2, 5}, targets: []kpj.NodeID{5, 9}, k: 6,
	}
	checkAgainstOracle(t, c)
}
