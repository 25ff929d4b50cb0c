package gen

import (
	"testing"

	"kpj/internal/graph"
	"kpj/internal/sssp"
)

func TestRoadBasicShape(t *testing.T) {
	g, err := Road(RoadConfig{Width: 30, Height: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 600 {
		t.Fatalf("nodes = %d, want 600", g.NumNodes())
	}
	s := graph.Summarize(g)
	if s.Isolated != 0 {
		t.Fatalf("%d isolated nodes", s.Isolated)
	}
	if s.MinW <= 0 {
		t.Fatalf("non-positive weight %d", s.MinW)
	}
	// Sparse: directed degree roughly in [2, 5] on average.
	avgDeg := float64(g.NumEdges()) / float64(g.NumNodes())
	if avgDeg < 2 || avgDeg > 6 {
		t.Fatalf("average directed degree %.2f out of road-network range", avgDeg)
	}
	if !graph.StronglyConnectedFrom(g, 0) {
		t.Fatal("road network must be strongly connected")
	}
}

func TestRoadDeterministic(t *testing.T) {
	cfg := RoadConfig{Width: 15, Height: 15, Seed: 7, Shortcuts: 3}
	a, err := Road(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Road(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for v := graph.NodeID(0); int(v) < a.NumNodes(); v++ {
		ea, eb := a.Out(v), b.Out(v)
		if len(ea) != len(eb) {
			t.Fatalf("degree of %d differs", v)
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("edge %d of node %d differs: %v vs %v", i, v, ea[i], eb[i])
			}
		}
	}
}

func TestRoadSeedsDiffer(t *testing.T) {
	a, err := Road(RoadConfig{Width: 15, Height: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Road(RoadConfig{Width: 15, Height: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := graph.NodeID(0); int(v) < a.NumNodes() && same; v++ {
		ea, eb := a.Out(v), b.Out(v)
		if len(ea) != len(eb) {
			same = false
			break
		}
		for i := range ea {
			if ea[i] != eb[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRoadErrors(t *testing.T) {
	if _, err := Road(RoadConfig{Width: 0, Height: 5}); err == nil {
		t.Fatal("want error for zero width")
	}
}

func TestDatasets(t *testing.T) {
	ds := Datasets()
	if len(ds) != 6 {
		t.Fatalf("want 6 datasets, got %d", len(ds))
	}
	for _, d := range ds {
		nodes := d.Width * d.Height
		ratio := float64(nodes) / float64(d.PaperNodes)
		if ratio < 0.99 || ratio > 1.01 {
			t.Errorf("%s: grid %d nodes vs paper %d (ratio %.3f)", d.Name, nodes, d.PaperNodes, ratio)
		}
	}
	if _, err := ByName("SJ"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("want error for unknown dataset")
	}
	sj, _ := ByName("SJ")
	g, err := sj.Build(0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.3
	side := int(scale * 135)
	want := side * side
	if g.NumNodes() < want/2 || g.NumNodes() > want*2 {
		t.Fatalf("scaled SJ nodes = %d, want near %d", g.NumNodes(), want)
	}
	if _, err := sj.Build(0, 1); err == nil {
		t.Fatal("want error for zero scale")
	}
	if _, err := sj.Build(2, 1); err == nil {
		t.Fatal("want error for scale > 1")
	}
}

func TestAddCALCategories(t *testing.T) {
	g, err := Road(RoadConfig{Width: 40, Height: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	names, err := AddCALCategories(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 {
		t.Fatalf("names = %v", names)
	}
	for i, c := range CALCategories {
		nodes, err := g.Category(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) != c.Size {
			t.Fatalf("|%s| = %d, want %d", c.Name, len(nodes), c.Size)
		}
		if names[i] != c.Name {
			t.Fatalf("names[%d] = %s", i, names[i])
		}
	}
}

func TestAddNestedCategories(t *testing.T) {
	g, err := Road(RoadConfig{Width: 100, Height: 100, Seed: 4}) // n = 10000
	if err != nil {
		t.Fatal(err)
	}
	names, err := AddNestedCategories(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	wantSizes := []int{1, 5, 10, 15} // n·10⁻⁴ units with n = 10⁴
	var prev map[graph.NodeID]bool
	for i, name := range names {
		nodes, err := g.Category(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) != wantSizes[i] {
			t.Fatalf("|%s| = %d, want %d", name, len(nodes), wantSizes[i])
		}
		cur := map[graph.NodeID]bool{}
		for _, v := range nodes {
			cur[v] = true
		}
		for v := range prev {
			if !cur[v] {
				t.Fatalf("%s does not contain all of its predecessor (missing %d)", name, v)
			}
		}
		prev = cur
	}
	if got := sizeForNested(10000, 2); got != 10 {
		t.Fatalf("|T3| on 10000 nodes = %d, want 10", got)
	}
	// Tiny graphs clamp to at least one node.
	small, err := Road(RoadConfig{Width: 3, Height: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddNestedCategories(small, 1); err != nil {
		t.Fatal(err)
	}
	t1, _ := small.Category("T1")
	if len(t1) != 1 {
		t.Fatalf("tiny T1 = %v", t1)
	}
}

func TestQuerySets(t *testing.T) {
	g, err := Road(RoadConfig{Width: 50, Height: 50, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddNestedCategories(g, 9); err != nil {
		t.Fatal(err)
	}
	sets, dist, err := QuerySets(g, "T2", 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != g.NumNodes() {
		t.Fatalf("dist len = %d", len(dist))
	}
	var prevAvg float64 = -1
	for i, set := range sets {
		if len(set) != 30 {
			t.Fatalf("Q%d has %d sources, want 30", i+1, len(set))
		}
		var sum float64
		for _, v := range set {
			if dist[v] >= graph.Infinity {
				t.Fatalf("Q%d contains unreachable source %d", i+1, v)
			}
			sum += float64(dist[v])
		}
		avg := sum / float64(len(set))
		if avg < prevAvg {
			t.Fatalf("Q%d average distance %.0f below Q%d's %.0f", i+1, avg, i, prevAvg)
		}
		prevAvg = avg
	}
	// The distances must agree with an independent Dijkstra.
	targets, _ := g.Category("T2")
	check := sssp.DistancesToSet(g, targets)
	for v := range check {
		if check[v] != dist[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], check[v])
		}
	}
	if _, _, err := QuerySets(g, "missing", 5, 1); err == nil {
		t.Fatal("want error for unknown category")
	}
}

func TestQuerySetsDeterministic(t *testing.T) {
	g, err := Road(RoadConfig{Width: 25, Height: 25, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddNestedCategories(g, 12); err != nil {
		t.Fatal(err)
	}
	a, _, err := QuerySets(g, "T3", 10, 13)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := QuerySets(g, "T3", 10, 13)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("nondeterministic query sets")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("nondeterministic query sets")
			}
		}
	}
}
