package kpj_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"kpj"
)

// TestMmapReweightChainKeepsHeadsMapped: after live reweights, a graph
// opened with mmap still reads its head arrays from the file — Apply moves
// only the two adjacency arrays to the heap — and its index still reads
// every landmark page that holds no dirty node from the file, while each
// page that does is a heap copy. It answers exactly like a chain grown
// from the verified read path. The mapping is PROT_READ, so a patch that
// wrote through a shared array or page would fault here.
func TestMmapReweightChainKeepsHeadsMapped(t *testing.T) {
	const w, h = 20, 80
	b := kpj.NewBuilder(w * h)
	id := func(x, y int) kpj.NodeID { return kpj.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddBiEdge(id(x, y), id(x+1, y), kpj.Weight(10+(x*7+y*3)%11))
			}
			if y+1 < h {
				b.AddBiEdge(id(x, y), id(x, y+1), kpj.Weight(10+(x*5+y*9)%13))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddCategory("poi", []kpj.NodeID{id(3, 17), id(18, 2), id(10, 10)}); err != nil {
		t.Fatal(err)
	}
	ix, err := kpj.BuildIndex(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.kpjflat")
	if err := kpj.WriteFlatFile(path, g, ix); err != nil {
		t.Fatal(err)
	}

	mg, mix, mc, err := kpj.OpenFlat(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	rg, rix, rc, err := kpj.OpenFlat(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	lo, hi := mappedRange(t, path)
	inFile := func(p unsafe.Pointer) bool { return uintptr(p) >= lo && uintptr(p) < hi }
	oh, oa, ih, ia := mg.Unwrap().CSR()
	if !inFile(unsafe.Pointer(&oh[0])) || !inFile(unsafe.Pointer(&oa[0])) || !inFile(unsafe.Pointer(&ih[0])) || !inFile(unsafe.Pointer(&ia[0])) {
		t.Fatal("the mmap'd graph does not alias its file")
	}

	dirty := make([]bool, w*h) // nodes any step's repair changed
	for step := 0; step < 12; step++ {
		u := id((step*7)%(w-1), (step*5)%h)
		d := &kpj.Delta{SetWeights: []kpj.EdgeUpdate{{U: u, V: u + 1, W: kpj.Weight(1 + step*9%40)}}}
		ma, err := mix.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := rix.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		for v, x := range kpj.DirtyMask(ma) {
			dirty[v] = dirty[v] || x
		}
		mg, mix, rg, rix = ma.Graph, ma.Index, ra.Graph, ra.Index
	}

	oh, oa, ih, ia = mg.Unwrap().CSR()
	if !inFile(unsafe.Pointer(&oh[0])) || !inFile(unsafe.Pointer(&ih[0])) {
		t.Fatal("a reweight chain moved the head arrays off the mapping")
	}
	if inFile(unsafe.Pointer(&oa[0])) || inFile(unsafe.Pointer(&ia[0])) {
		t.Fatal("a reweighted generation still reads its adjacency from the file")
	}
	pages := kpj.LandmarkPages(mix)
	perPage := len(pages[0]) / (2 * mix.Count())
	mapped, dirtyPages := 0, 0
	for p, page := range pages {
		held := slices.Contains(dirty[p*perPage:min((p+1)*perPage, len(dirty))], true)
		onFile := inFile(unsafe.Pointer(&page[0]))
		if held == onFile {
			t.Fatalf("landmark page %d: holds a dirty node %v, reads from the file %v", p, held, onFile)
		}
		if onFile {
			mapped++
		} else {
			dirtyPages++
		}
	}
	t.Logf("%d of %d landmark pages still mapped, %d copied", mapped, len(pages), dirtyPages)
	if mapped == 0 || dirtyPages == 0 {
		t.Fatalf("want both mapped and copied landmark pages: %d mapped, %d copied of %d", mapped, dirtyPages, len(pages))
	}
	for _, alg := range allAlgorithms {
		for _, src := range []kpj.NodeID{id(0, 0), id(19, 19), id(7, 12)} {
			got, err := mg.TopKJoin(src, "poi", 8, &kpj.Options{Index: mix, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			want, err := rg.TopKJoin(src, "poi", 8, &kpj.Options{Index: rix, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v from %d: mmap chain %v, read chain %v", alg, src, got, want)
			}
		}
	}
}

// mappedRange finds path's mapping in this process's address space.
func mappedRange(t *testing.T, path string) (lo, hi uintptr) {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); strings.HasSuffix(line, path) {
			if _, err := fmt.Sscanf(line, "%x-%x", &lo, &hi); err != nil {
				t.Fatalf("maps line %q: %v", line, err)
			}
			return lo, hi
		}
	}
	t.Fatalf("%s is not mapped", path)
	return 0, 0
}
