package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kpj"
)

// TestTuneFlatInFlatOut: kpjtune reads the one persisted format and writes
// it back — same graph and categories, now carrying the index a direct
// Graph.Tune with the same settings picks.
func TestTuneFlatInFlatOut(t *testing.T) {
	const w, h = 12, 12
	b := kpj.NewBuilder(w * h)
	id := func(x, y int) kpj.NodeID { return kpj.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddBiEdge(id(x, y), id(x+1, y), int64(3+(x*7+y*5)%11))
			}
			if y+1 < h {
				b.AddBiEdge(id(x, y), id(x, y+1), int64(2+(x*3+y*13)%9))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddCategory("cafe", []kpj.NodeID{17, 80, 131}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in, out := filepath.Join(dir, "in.kpjflat"), filepath.Join(dir, "tuned.kpjflat")
	if err := kpj.WriteFlatFile(in, g, nil); err != nil {
		t.Fatal(err)
	}

	if err := run(in, "cafe", 4, 5, 1, out); err != nil {
		t.Fatalf("run: %v", err)
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, ix, err := kpj.ReadFlat(f)
	if err != nil {
		t.Fatalf("ReadFlat rejects kpjtune's output: %v", err)
	}
	rep, err := g.Tune("cafe", &kpj.TuneOptions{SampleQueries: 4, K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix == nil || ix.TablesChecksum() != rep.Index.TablesChecksum() || ix.Fingerprint() != rep.Index.Fingerprint() {
		t.Fatal("output does not carry the winning index")
	}
	if got.NumNodes() != g.NumNodes() || !reflect.DeepEqual(got.Categories(), g.Categories()) {
		t.Fatalf("output graph: %d nodes, categories %v", got.NumNodes(), got.Categories())
	}
	want, err := g.TopKJoin(0, "cafe", 6, &kpj.Options{Index: rep.Index})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := got.TopKJoin(0, "cafe", 6, &kpj.Options{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("paths from the output file %v, want %v", paths, want)
	}

	if err := run(filepath.Join(dir, "missing.kpjflat"), "cafe", 4, 5, 1, ""); err == nil {
		t.Fatal("missing input accepted")
	}
}
