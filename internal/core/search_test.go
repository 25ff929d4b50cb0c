package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kpj/internal/bruteforce"
	"kpj/internal/graph"
	"kpj/internal/landmark"
	"kpj/internal/testgraphs"
)

// TestSubspaceDivisionExhaustive asks for far more paths than exist: the
// engine must enumerate EVERY simple path exactly once (the partition
// property of the subspace division, Section 4.1) and then stop.
func TestSubspaceDivisionExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(7)
		g := testgraphs.Random(rng, n, 3, 9, trial%2 == 0)
		targets := testgraphs.RandomCategory(rng, g, "T", 1+rng.Intn(2))
		src := graph.NodeID(rng.Intn(n))
		q := Query{Sources: []graph.NodeID{src}, Targets: targets, K: 100000}
		want := bruteforce.TopK(g, q.Sources, q.Targets, q.K)

		for name, fn := range Algorithms() {
			paths, err := fn(g, q, Options{})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if len(paths) != len(want) {
				t.Fatalf("trial %d %s: enumerated %d paths, oracle has %d",
					trial, name, len(paths), len(want))
			}
			// Same multiset of node sequences (order may differ on ties).
			got := make([][]graph.NodeID, len(paths))
			for i, p := range paths {
				got[i] = p.Nodes
			}
			ref := make([][]graph.NodeID, len(want))
			for i, p := range want {
				ref[i] = p.Nodes
			}
			if !samePathMultiset(got, ref) {
				t.Fatalf("trial %d %s: path multiset differs from oracle", trial, name)
			}
		}
	}
}

func samePathMultiset(a, b [][]graph.NodeID) bool {
	key := func(nodes []graph.NodeID) string {
		s := make([]byte, 0, len(nodes)*2)
		for _, v := range nodes {
			s = append(s, byte(v), ',')
		}
		return string(s)
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = key(a[i])
	}
	for i := range b {
		kb[i] = key(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	return reflect.DeepEqual(ka, kb)
}

// TestTestLBContract checks Lemma 5.1 directly: for a subspace with
// shortest path length L, subspaceSearch with bound τ must return Found
// (with length L) iff τ ≥ L, Exceeded when τ < L, and Empty consistently
// when the subspace has no path.
func TestTestLBContract(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(10)
		g := testgraphs.Random(rng, n, 3, 9, trial%2 == 0)
		targets := testgraphs.RandomCategory(rng, g, "T", 1+rng.Intn(2))
		src := graph.NodeID(rng.Intn(n))
		sp := newForwardSpace(g, []graph.NodeID{src}, targets)
		ws := NewWorkspace(sp.numSpaceNodes())
		pt := newPseudoTree(sp.Root)
		h := zeroHeuristic{}

		// Build a few pseudo-tree vertices by running the initial search
		// and inserting its result.
		res, status := ws.subspaceSearch(sp, pt, 0, h, graph.Infinity, nil, nil)
		if status != Found {
			continue // no path at all from this source
		}
		firstNew := pt.InsertSuffix(0, res.Suffix, res.Lens)
		vertices := []VertexID{0}
		for v := firstNew; v < firstNew+VertexID(len(res.Suffix)); v++ {
			vertices = append(vertices, v)
		}
		for _, u := range vertices {
			if pt.Node(u) == sp.Goal {
				continue
			}
			exact, st := ws.subspaceSearch(sp, pt, u, h, graph.Infinity, nil, nil)
			for _, tau := range []graph.Weight{0, 1, 3, 7, 20, 100} {
				got, gotSt := ws.subspaceSearch(sp, pt, u, h, tau, nil, nil)
				switch st {
				case Found:
					if tau >= exact.Total {
						if gotSt != Found || got.Total != exact.Total {
							t.Fatalf("trial %d vertex %d τ=%d: got %v/%d, want Found/%d",
								trial, u, tau, gotSt, got.Total, exact.Total)
						}
					} else if gotSt != Exceeded {
						t.Fatalf("trial %d vertex %d τ=%d < L=%d: got %v, want Exceeded",
							trial, u, tau, exact.Total, gotSt)
					}
				case Empty:
					// With the zero heuristic and no pruner, a bounded
					// search may report Exceeded for an empty subspace
					// (it cannot distinguish), but must never find a path.
					if gotSt == Found {
						t.Fatalf("trial %d vertex %d τ=%d: found a path in an empty subspace", trial, u, tau)
					}
				}
			}
		}
	}
}

// TestCategoryHeuristicConsistent verifies the consistency property the
// SPT_I growth relies on: h(u) ≤ ω(u,v) + h(v) along every space edge.
func TestCategoryHeuristicConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(25)
		g := testgraphs.Random(rng, n, 3, 15, trial%2 == 0)
		targets := testgraphs.RandomCategory(rng, g, "T", 1+rng.Intn(3))
		ix, err := landmark.Build(g, 1+rng.Intn(4), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		sp := newForwardSpace(g, []graph.NodeID{0}, targets)
		h := categoryHeuristic{Space: sp, Bounds: ix.BoundsToSet(targets)}
		for v := graph.NodeID(0); int(v) < n; v++ {
			hv := h.H(v)
			sp.expand(v, func(to graph.NodeID, w graph.Weight) {
				ht := h.H(to)
				if ht >= graph.Infinity {
					return
				}
				if hv < graph.Infinity && hv > w+ht {
					t.Fatalf("trial %d: inconsistent Eq.2 bound at (%d,%d): %d > %d + %d",
						trial, v, to, hv, w, ht)
				}
			})
		}
	}
}

// TestCompLBIsLowerBound: the one-hop bound of Alg. 3 never exceeds the
// subspace's true shortest path length.
func TestCompLBIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(10)
		g := testgraphs.Random(rng, n, 3, 9, true)
		targets := testgraphs.RandomCategory(rng, g, "T", 1+rng.Intn(2))
		src := graph.NodeID(rng.Intn(n))
		sp := newForwardSpace(g, []graph.NodeID{src}, targets)
		ws := NewWorkspace(sp.numSpaceNodes())
		pt := newPseudoTree(sp.Root)
		var h Heuristic = zeroHeuristic{}
		if trial%2 == 0 {
			ix, err := landmark.Build(g, 2, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			h = categoryHeuristic{Space: sp, Bounds: ix.BoundsToSet(targets)}
		}
		res, status := ws.subspaceSearch(sp, pt, 0, h, graph.Infinity, nil, nil)
		if status != Found {
			continue
		}
		firstNew := pt.InsertSuffix(0, res.Suffix, res.Lens)
		vertices := []VertexID{0}
		for v := firstNew; v < firstNew+VertexID(len(res.Suffix)); v++ {
			vertices = append(vertices, v)
		}
		for _, u := range vertices {
			if pt.Node(u) == sp.Goal {
				continue
			}
			lb := ws.CompLB(sp, pt, u, h, nil, nil)
			exact, st := ws.subspaceSearch(sp, pt, u, h, graph.Infinity, nil, nil)
			switch st {
			case Found:
				if lb > exact.Total {
					t.Fatalf("trial %d vertex %d: CompLB %d > sp %d", trial, u, lb, exact.Total)
				}
			case Empty:
				// lb may be anything for an empty subspace; Infinity is
				// the informative answer but not required here.
			}
		}
	}
}

// TestChainLBsMatchCompLB: the division's chained lower bounds
// (the deviation prefix banned once and extended per candidate, h memoized
// across the division) equal CompLB run candidate by candidate, SPT_I's
// D-restriction at the virtual root included. Each trial divides along
// three successive paths of an IterBoundI-style reverse space.
func TestChainLBsMatchCompLB(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(30)
		g := testgraphs.Random(rng, n, 3, 9, trial%2 == 0)
		targets := testgraphs.RandomCategory(rng, g, "T", 1+rng.Intn(3))
		src := []graph.NodeID{graph.NodeID(rng.Intn(n))}
		fwd := newForwardSpace(g, src, targets)
		rev := newReverseSpace(g, src, targets)
		var growH, fallback Heuristic = zeroHeuristic{}, zeroHeuristic{}
		if trial%3 != 0 {
			ix, err := landmark.Build(g, 2, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			growH = categoryHeuristic{Space: fwd, Bounds: ix.BoundsToSet(targets)}
			fallback = sourceHeuristic{Space: rev, Index: ix, Source: src[0]}
		}
		ws := NewWorkspace(rev.numSpaceNodes())
		tree := ws.initSPTI(fwd, growH, nil, nil)
		res, ok := tree.initialPath()
		if !ok {
			continue
		}
		if trial%2 == 1 {
			tree.growTo(res.Total * 2) // some trials see a grown tree
		}
		h := treeHeuristic{T: tree.t, Fallback: fallback}
		pt := newPseudoTree(rev.Root)
		d := VertexID(0)
		for div := 0; div < 3; div++ {
			first := pt.InsertSuffix(d, res.Suffix, res.Lens)
			var cands []VertexID // as emitAndDivide gathers them
			if pt.Node(d) != rev.Goal {
				cands = append(cands, d)
			}
			for v := first; v < first+VertexID(len(res.Suffix)); v++ {
				if pt.Node(v) != rev.Goal {
					cands = append(cands, v)
				}
			}
			want := make([]graph.Weight, len(cands))
			for i, u := range cands {
				want[i] = ws.CompLB(rev, pt, u, h, tree, nil)
			}
			got := make([]graph.Weight, len(cands))
			ws.chainLBs(rev, pt, cands, got, h, tree, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d division %d: chained lower bounds %v, one by one %v (candidates %v)", trial, div, got, want, cands)
			}
			if len(cands) == 0 {
				break
			}
			d = cands[rng.Intn(len(cands))]
			var st SearchStatus
			if res, st = ws.subspaceSearch(rev, pt, d, h, graph.Infinity, nil, nil); st != Found {
				break
			}
		}
	}
}

// TestWorkspaceEpochWraparound forces the uint32 epochs to wrap and checks
// searches still work.
func TestWorkspaceEpochWraparound(t *testing.T) {
	g := testgraphs.Fig1()
	hotels, _ := g.Category(testgraphs.HotelCategory)
	sp := newForwardSpace(g, []graph.NodeID{testgraphs.V1}, hotels)
	ws := NewWorkspace(sp.numSpaceNodes())
	ws.depoch = ^uint32(0) - 1
	ws.hepoch = ^uint32(0) - 1
	ws.banEpoch = ^uint32(0) - 1
	for i := 0; i < 5; i++ {
		pt := newPseudoTree(sp.Root)
		res, status := ws.subspaceSearch(sp, pt, 0, zeroHeuristic{}, graph.Infinity, nil, nil)
		if status != Found || res.Total != 5 {
			t.Fatalf("iteration %d after wrap: %v/%d", i, status, res.Total)
		}
	}
}

// TestStatusString covers the SearchStatus stringer.
func TestStatusString(t *testing.T) {
	if Found.String() != "found" || Exceeded.String() != "exceeded" || Empty.String() != "empty" {
		t.Fatal("SearchStatus.String wrong")
	}
}
