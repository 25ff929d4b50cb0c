package kpj_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"kpj"
)

// TestReweightChainSharesLoadedArrays: after live reweights, a graph
// loaded from a flat file still shares its head arrays with the loaded
// generation — Apply copies only the two adjacency arrays — and its index
// still shares every landmark page that holds no dirty node, while each
// page that does is a fresh copy. The loaded generation is left
// byte-equal to a fresh load of the same file (no patch wrote through a
// shared array or page), and the chain answers exactly like one grown
// from the in-memory build the file was written from.
func TestReweightChainSharesLoadedArrays(t *testing.T) {
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

	lg, lix, _, err := kpj.OpenFlat(path, false)
	if err != nil {
		t.Fatal(err)
	}
	fg, fix := lg, lix         // the chain grown from the file
	mg, mix := g, ix           // the chain grown in memory
	dirty := make([]bool, w*h) // nodes any step's repair changed
	for step := 0; step < 12; step++ {
		u := id((step*7)%(w-1), (step*5)%h)
		d := &kpj.Delta{SetWeights: []kpj.EdgeUpdate{{U: u, V: u + 1, W: kpj.Weight(1 + step*9%40)}}}
		fa, err := fix.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		ma, err := mix.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		for v, x := range kpj.DirtyMask(fa) {
			dirty[v] = dirty[v] || x
		}
		fg, fix, mg, mix = fa.Graph, fa.Index, ma.Graph, ma.Index
	}

	loh, loa, lih, lia := lg.Unwrap().CSR()
	oh, oa, ih, ia := fg.Unwrap().CSR()
	if &oh[0] != &loh[0] || &ih[0] != &lih[0] {
		t.Fatal("a reweight chain stopped sharing the loaded head arrays")
	}
	if &oa[0] == &loa[0] || &ia[0] == &lia[0] {
		t.Fatal("a reweighted generation still shares the loaded adjacency")
	}
	loaded, pages := kpj.LandmarkPages(lix), kpj.LandmarkPages(fix)
	perPage := len(pages[0]) / (2 * fix.Count())
	shared, copied := 0, 0
	for p, page := range pages {
		held := slices.Contains(dirty[p*perPage:min((p+1)*perPage, len(dirty))], true)
		same := &page[0] == &loaded[p][0]
		if held == same {
			t.Fatalf("landmark page %d: holds a dirty node %v, shared with the loaded index %v", p, held, same)
		}
		if same {
			shared++
		} else {
			copied++
		}
	}
	t.Logf("%d of %d landmark pages still shared, %d copied", shared, len(pages), copied)
	if shared == 0 || copied == 0 {
		t.Fatalf("want both shared and copied landmark pages: %d shared, %d copied of %d", shared, copied, len(pages))
	}

	rg, rix, _, err := kpj.OpenFlat(path, false)
	if err != nil {
		t.Fatal(err)
	}
	roh, roa, rih, ria := rg.Unwrap().CSR()
	if !slices.Equal(loh, roh) || !slices.Equal(loa, roa) || !slices.Equal(lih, rih) || !slices.Equal(lia, ria) {
		t.Fatal("the reweight chain wrote through the loaded generation's adjacency")
	}
	for p, page := range kpj.LandmarkPages(rix) {
		if !slices.Equal(loaded[p], page) {
			t.Fatalf("the reweight chain wrote through loaded landmark page %d", p)
		}
	}

	for _, alg := range allAlgorithms {
		for _, src := range []kpj.NodeID{id(0, 0), id(19, 19), id(7, 12)} {
			got, err := fg.TopKJoin(src, "poi", 8, &kpj.Options{Index: fix, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			want, err := mg.TopKJoin(src, "poi", 8, &kpj.Options{Index: mix, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v from %d: file chain %v, memory chain %v", alg, src, got, want)
			}
		}
	}
}

// TestOpenFlatRefusesFlippedByte: a flat file on disk with one byte
// flipped anywhere — header, each CSR array, categories, landmark ids and
// rows, or the checksum itself — is refused whatever OpenFlat's bool says.
func TestOpenFlatRefusesFlippedByte(t *testing.T) {
	g := fig1(t)
	ix, err := kpj.BuildIndex(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fig1.kpjflat")
	if err := kpj.WriteFlatFile(path, g, ix); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Section starts, from the header (see internal/flatindex's layout).
	u64 := func(off int) int { return int(binary.NativeEndian.Uint64(blob[off:])) }
	align := func(x int) int { return (x + 15) &^ 15 }
	n, m := u64(32), u64(40)
	edge := int(binary.NativeEndian.Uint32(blob[16:]))
	outAdj := align(96 + (n+1)*4)
	inHead := align(outAdj + m*edge)
	inAdj := align(inHead + (n+1)*4)
	cats, lm := u64(56), u64(64)
	ids := align(lm + 4)
	rows := align(ids + ix.Count()*4)
	sections := []struct {
		name string
		at   int
	}{
		{"header", 40}, // low byte of m
		{"out heads", 96 + 4},
		{"out adjacency", outAdj + edge + 4}, // a weight
		{"in heads", inHead + 4},
		{"in adjacency", inAdj},
		{"categories", cats + 12}, // a name byte
		{"landmark count", lm},
		{"landmark ids", ids},
		{"landmark rows", rows + 4},
		{"checksum", len(blob) - 1},
	}
	for _, s := range sections {
		bad := slices.Clone(blob)
		bad[s.at] ^= 0x01
		p := filepath.Join(dir, "flipped.kpjflat")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, flag := range []bool{true, false} {
			if _, _, _, err := kpj.OpenFlat(p, flag); err == nil {
				t.Errorf("OpenFlat(%v) accepted a flipped byte in the %s (offset %d)", flag, s.name, s.at)
			}
		}
	}
	if _, _, _, err := kpj.OpenFlat(path, true); err != nil {
		t.Fatalf("the unflipped file: %v", err)
	}
}
