package kpj_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"kpj"
)

// cityGrid builds a small road grid through the public API.
func cityGrid(t testing.TB, w, h int, seed int64) *kpj.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := kpj.NewBuilder(w * h)
	id := func(x, y int) kpj.NodeID { return kpj.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddBiEdge(id(x, y), id(x+1, y), 50+rng.Int63n(100))
			}
			if y+1 < h {
				b.AddBiEdge(id(x, y), id(x, y+1), 50+rng.Int63n(100))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTunePublicAPI(t *testing.T) {
	g := cityGrid(t, 25, 25, 2)
	if err := g.AddCategory("poi", []kpj.NodeID{30, 222, 555}); err != nil {
		t.Fatal(err)
	}
	rep, err := g.Tune("poi", &kpj.TuneOptions{
		LandmarkCounts: []int{0, 4},
		Alphas:         []float64{1.1, 1.5},
		SampleQueries:  5,
		K:              8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 4 {
		t.Fatalf("trials = %d, want 4", len(rep.Trials))
	}
	if rep.Alpha <= 1 {
		t.Fatalf("winning alpha = %v", rep.Alpha)
	}
	// The recommendation must actually run.
	opt := &kpj.Options{Index: rep.Index, Alpha: rep.Alpha}
	paths, err := g.TopKJoin(0, "poi", 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("tuned query returned %d paths", len(paths))
	}
	// And agree with the default configuration's results.
	ref, err := g.TopKJoin(0, "poi", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i].Length != paths[i].Length {
			t.Fatalf("tuned results differ: %v vs %v", paths, ref)
		}
	}
	if _, err := g.Tune("missing", nil); err == nil {
		t.Fatal("want error for unknown category")
	}
}

func TestTuneDefaultOptions(t *testing.T) {
	g := cityGrid(t, 12, 12, 3)
	if err := g.AddCategory("poi", []kpj.NodeID{7, 99}); err != nil {
		t.Fatal(err)
	}
	rep, err := g.Tune("poi", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 16 { // default 4×4 grid
		t.Fatalf("default grid trials = %d", len(rep.Trials))
	}
}

func TestIndexSaveLoadPublicAPI(t *testing.T) {
	g := cityGrid(t, 15, 15, 4)
	if err := g.AddCategory("poi", []kpj.NodeID{11, 140}); err != nil {
		t.Fatal(err)
	}
	ix, err := kpj.BuildIndex(g, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := kpj.WriteFlat(&buf, g, ix); err != nil {
		t.Fatal(err)
	}
	_, fromFile, err := kpj.ReadFlat(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Rebind onto the graph in hand, as a server reloading the file does.
	loaded, err := fromFile.Rebind(g)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Count() != 5 || loaded.TablesChecksum() != ix.TablesChecksum() {
		t.Fatalf("loaded Count = %d, tables equal = %v", loaded.Count(), loaded.TablesChecksum() == ix.TablesChecksum())
	}
	a, err := g.TopKJoin(3, "poi", 4, &kpj.Options{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.TopKJoin(3, "poi", 4, &kpj.Options{Index: loaded})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("loaded index changed results")
	}
	// Wrong graph must be rejected.
	other := cityGrid(t, 15, 15, 5)
	if _, err := fromFile.Rebind(other); !errors.Is(err, kpj.ErrGraphMismatch) {
		t.Fatalf("rebind onto a different graph: err = %v, want ErrGraphMismatch", err)
	}
	if _, _, err := kpj.ReadFlat(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("want error for junk data")
	}
}

func TestSplitBiEdgePOI(t *testing.T) {
	// Road 0 —100— 1; a store sits 30 from node 0 along the segment.
	b := kpj.NewBuilder(2)
	store := b.SplitBiEdge(0, 1, 30, 70)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || store != 2 {
		t.Fatalf("store id = %d, nodes = %d", store, g.NumNodes())
	}
	if err := g.AddCategory("store", []kpj.NodeID{store}); err != nil {
		t.Fatal(err)
	}
	paths, err := g.TopKJoin(1, "store", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].Length != 70 {
		t.Fatalf("paths = %v, want single length-70 path", paths)
	}
}
