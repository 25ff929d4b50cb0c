package core

import (
	"sync"
	"testing"

	"kpj/internal/gen"
	"kpj/internal/graph"
	"kpj/internal/landmark"
)

// The engine's two inner kernels on a far query: SPT growth (the A* behind
// SPT_I and SPT_P) and a division's CompLB calls. The fixture is the
// benchmark harness's dataset — gen.Road 300×300, nested POIs, 16
// landmarks — queried toward the 9-node T1 from a source in the farthest
// fifth, the shape of its query-far workload.
//
//	go test -run '^$' -bench 'BenchmarkSPTGrow|BenchmarkDivisionCompLB' ./internal/core/

var kernelFixture struct {
	once    sync.Once
	err     error
	g       *graph.Graph
	ix      *landmark.Index
	q       Query
	targets []graph.NodeID
}

func farQuery(b *testing.B) (*graph.Graph, *landmark.Index, Query) {
	f := &kernelFixture
	f.once.Do(func() {
		if f.g, f.err = gen.Road(gen.RoadConfig{Width: 300, Height: 300, Seed: 1}); f.err != nil {
			return
		}
		if _, f.err = gen.AddNestedCategories(f.g, 2); f.err != nil {
			return
		}
		if f.ix, f.err = landmark.Build(f.g, 16, 1); f.err != nil {
			return
		}
		var sets [gen.QuerySetCount][]graph.NodeID
		if sets, _, f.err = gen.QuerySets(f.g, "T1", 1, 1); f.err != nil {
			return
		}
		f.targets, f.err = f.g.Category("T1")
		f.q = Query{Sources: sets[gen.QuerySetCount-1][:1], Targets: f.targets, K: 20}
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
	return f.g, f.ix, f.q
}

// growTau is the first bound a far query grows SPT_I to: α·δ at the
// paper's α = 1.1.
func growTau(first graph.Weight) graph.Weight { return first + first/10 }

// BenchmarkSPTGrow runs SPT_I's phase one and one growTo(1.1·δ) per op.
func BenchmarkSPTGrow(b *testing.B) {
	g, ix, q := farQuery(b)
	ws := NewWorkspace(g.NumNodes() + 2)
	fwd := ws.forwardSpace(g, q.Sources, q.Targets)
	h := goalHeuristic(ws, fwd, q, &Options{Index: ix})
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := ws.initSPTI(fwd, h, &st, nil)
		first, ok := tree.initialPath()
		if !ok {
			b.Fatal("far source reaches no T1 node")
		}
		tree.growTo(growTau(first.Total))
	}
	b.ReportMetric(float64(st.SPTNodes)/float64(b.N), "spt-nodes/op")
}

// BenchmarkDivisionCompLB computes the lower bounds of the first division
// of a far IterBoundI query — the virtual root plus every vertex of the
// first path, each subspace bounded by CompLB over SPT_I grown to 1.1·δ —
// chained as the engine does, and one reference CompLB at a time.
func BenchmarkDivisionCompLB(b *testing.B) {
	g, ix, q := farQuery(b)
	ws := NewWorkspace(g.NumNodes() + 2)
	fwd := ws.forwardSpace(g, q.Sources, q.Targets)
	rev := ws.reverseSpace(g, q.Sources, q.Targets)
	opt := &Options{Index: ix}
	tree := ws.initSPTI(fwd, goalHeuristic(ws, fwd, q, opt), nil, nil)
	first, ok := tree.initialPath()
	if !ok {
		b.Fatal("far source reaches no T1 node")
	}
	tree.growTo(growTau(first.Total))
	h := ws.cachedTreeHeuristic(tree.t, goalHeuristic(ws, rev, q, opt))
	pt := newPseudoTree(rev.Root)
	firstNew := pt.InsertSuffix(0, first.Suffix, first.Lens)
	cands := []VertexID{0}
	for v := firstNew; v < firstNew+VertexID(len(first.Suffix)); v++ {
		if pt.Node(v) != rev.Goal {
			cands = append(cands, v)
		}
	}
	lbs := make([]graph.Weight, len(cands))
	for _, mode := range []string{"chain", "each"} {
		b.Run(mode, func(b *testing.B) {
			var st Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "chain" {
					ws.chainLBs(rev, pt, cands, lbs, h, tree, &st)
					continue
				}
				for j, v := range cands {
					lbs[j] = ws.CompLB(rev, pt, v, h, tree, &st)
				}
			}
			b.ReportMetric(float64(st.LowerBounds)/float64(b.N), "lower-bounds/op")
		})
	}
}
