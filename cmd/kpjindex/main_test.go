package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kpj"
)

// A 3x3 two-way grid with distinct weights, in DIMACS form (1-based ids),
// and its POI file (0-based ids).
const (
	tinyGr = `c tiny grid
p sp 9 24
a 1 2 3
a 2 1 3
a 2 3 5
a 3 2 5
a 4 5 2
a 5 4 2
a 5 6 7
a 6 5 7
a 7 8 4
a 8 7 4
a 8 9 6
a 9 8 6
a 1 4 8
a 4 1 8
a 4 7 1
a 7 4 1
a 2 5 9
a 5 2 9
a 5 8 3
a 8 5 3
a 3 6 2
a 6 3 2
a 6 9 5
a 9 6 5
`
	tinyPois = "cafe 2\ncafe 8\ndepot 6\n"
)

// TestImportMatchesDirectBuild: the importer's output, opened either way,
// is the graph, the categories and the index a direct ReadGraph +
// BuildIndex produce, and answers queries identically.
func TestImportMatchesDirectBuild(t *testing.T) {
	dir := t.TempDir()
	grPath, poisPath, out := filepath.Join(dir, "tiny.gr"), filepath.Join(dir, "tiny.pois"), filepath.Join(dir, "tiny.kpjflat")
	if err := os.WriteFile(grPath, []byte(tinyGr), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(poisPath, []byte(tinyPois), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(grPath, poisPath, 3, 5, out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := os.Stat(out + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary output left behind: %v", err)
	}

	want, err := kpj.ReadGraph(strings.NewReader(tinyGr))
	if err != nil {
		t.Fatal(err)
	}
	if err := want.ReadCategories(strings.NewReader(tinyPois)); err != nil {
		t.Fatal(err)
	}
	wantIx, err := kpj.BuildIndex(want, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantPaths, err := want.TopKJoin(0, "cafe", 4, &kpj.Options{Index: wantIx})
	if err != nil {
		t.Fatal(err)
	}

	g, ix, _, err := kpj.OpenFlat(out, false)
	if err != nil {
		t.Fatalf("OpenFlat: %v", err)
	}
	if ix == nil || ix.TablesChecksum() != wantIx.TablesChecksum() || ix.Fingerprint() != wantIx.Fingerprint() {
		t.Fatal("index differs from a direct build")
	}
	if !reflect.DeepEqual(g.Categories(), want.Categories()) {
		t.Fatalf("categories %v, want %v", g.Categories(), want.Categories())
	}
	for _, name := range want.Categories() {
		got, _ := g.Category(name)
		exp, _ := want.Category(name)
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("category %s = %v, want %v", name, got, exp)
		}
	}
	paths, err := g.TopKJoin(0, "cafe", 4, &kpj.Options{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(paths, wantPaths) {
		t.Fatalf("paths %v, want %v", paths, wantPaths)
	}
}
