package flatindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kpj/internal/graph"
	"kpj/internal/landmark"
	"kpj/internal/testgraphs"
)

// buildSample returns a graph with categories and a landmark index, plus
// its flat serialization.
func buildSample(t testing.TB, seed int64) (*graph.Graph, *landmark.Index, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := testgraphs.RandomConnected(rng, 200, 700, 30)
	if err := g.AddCategory("T", testgraphs.RandomCategory(rng, g, "T", 7)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddCategory("hotel", testgraphs.RandomCategory(rng, g, "hotel", 4)); err != nil {
		t.Fatal(err)
	}
	ix, err := landmark.Build(g, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := Write(&buf, g, ix)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Write reported %d bytes, wrote %d", n, buf.Len())
	}
	return g, ix, buf.Bytes()
}

func sameGraph(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape: %d/%d vs %d/%d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	if got.MaxEdgeWeight() != want.MaxEdgeWeight() {
		t.Fatalf("maxW %d vs %d", got.MaxEdgeWeight(), want.MaxEdgeWeight())
	}
	for v := graph.NodeID(0); int(v) < want.NumNodes(); v++ {
		for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
			a, b := want.Edges(dir, v), got.Edges(dir, v)
			if len(a) != len(b) {
				t.Fatalf("node %d %v degree %d vs %d", v, dir, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("node %d %v edge %d: %v vs %v", v, dir, i, b[i], a[i])
				}
			}
		}
	}
	wc, gc := want.Categories(), got.Categories()
	if len(wc) != len(gc) {
		t.Fatalf("categories %v vs %v", gc, wc)
	}
	for i, name := range wc {
		if gc[i] != name {
			t.Fatalf("categories %v vs %v", gc, wc)
		}
		a, _ := want.Category(name)
		b, _ := got.Category(name)
		if len(a) != len(b) {
			t.Fatalf("category %q: %v vs %v", name, b, a)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("category %q: %v vs %v", name, b, a)
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	g, ix, blob := buildSample(t, 1)
	l, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sameGraph(t, g, l.G)
	if l.Index == nil {
		t.Fatal("landmark section lost")
	}
	if l.Index.Fingerprint() != ix.Fingerprint() {
		t.Fatalf("index fingerprint %#x vs %#x", l.Index.Fingerprint(), ix.Fingerprint())
	}
	// Lower bounds are the index's observable behaviour: spot-check a grid.
	for u := graph.NodeID(0); u < 50; u += 7 {
		for v := graph.NodeID(0); v < 200; v += 13 {
			if a, b := ix.LowerBound(u, v), l.Index.LowerBound(u, v); a != b {
				t.Fatalf("LowerBound(%d,%d) %d vs %d", u, v, a, b)
			}
		}
	}
}

func TestRoundTripNoIndex(t *testing.T) {
	g, _, _ := buildSample(t, 2)
	var buf bytes.Buffer
	if _, err := Write(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	l, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sameGraph(t, g, l.G)
	if l.Index != nil {
		t.Fatal("index materialized from a file without one")
	}
}

// TestRejectTruncated: both loaders refuse a payload cut short or with a
// trailing byte, as malformed rather than with some other error.
func TestRejectTruncated(t *testing.T) {
	_, _, blob := buildSample(t, 4)
	path := filepath.Join(t.TempDir(), "cut.kpjflat")
	cases := map[string][]byte{"one trailing byte": append(slices.Clone(blob), 0)}
	for _, cut := range []int{0, 7, headerSize - 1, headerSize + 3, len(blob) / 2, len(blob) - 1} {
		cases[fmt.Sprintf("truncated to %d bytes", cut)] = blob[:cut]
	}
	for name, b := range cases {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, rerr := Read(bytes.NewReader(b))
		_, ferr := ReadFile(path)
		for loader, err := range map[string]error{"Read": rerr, "ReadFile": ferr} {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrChecksum) {
				t.Errorf("%s, %s: %v, want ErrFormat or ErrChecksum", name, loader, err)
			}
		}
	}
}

func TestRejectCorruptHeader(t *testing.T) {
	_, _, blob := buildSample(t, 5)
	corrupt := func(off int, val uint32) []byte {
		b := append([]byte(nil), blob...)
		binary.NativeEndian.PutUint32(b[off:], val)
		return b
	}
	cases := map[string][]byte{
		"magic":        append([]byte("XXXXXXXX"), blob[8:]...),
		"version":      corrupt(8, 99),
		"version 1":    corrupt(8, 1), // table-major landmark section
		"sentinel":     corrupt(12, 0x04030201),
		"edge size":    corrupt(16, 24),
		"weight offs":  corrupt(20, 4),
		"flags":        corrupt(24, 0xff),
		"node count":   corrupt(32, 0xffffffff),
		"file size":    corrupt(72, 17),
		"cat offset":   corrupt(56, uint32(len(blob))+1024),
		"lmark offset": corrupt(64, uint32(len(blob))-2),
	}
	for name, b := range cases {
		if _, err := Read(bytes.NewReader(b)); err == nil {
			t.Errorf("accepted corrupt %s", name)
		}
		// Header fields must also be rejected structurally, not by the
		// checksum alone: with the CRC resealed over the corruption, Read
		// still refuses, and not with ErrChecksum.
		if _, err := Read(bytes.NewReader(reseal(b))); err == nil {
			t.Errorf("corrupt %s accepted with a resealed checksum", name)
		} else if errors.Is(err, ErrChecksum) {
			t.Errorf("corrupt %s with a resealed checksum: %v, want a structural error", name, err)
		}
	}
	// A version 1 file has the same size as this build's layout but stores
	// the landmark distances table-major: it must be refused, not misread.
	if _, err := Read(bytes.NewReader(cases["version 1"])); !errors.Is(err, ErrFormat) {
		t.Errorf("version 1 file: %v, want ErrFormat", err)
	}
}

// reseal returns a copy of b with its trailing CRC recomputed, so only
// the structural checks stand between it and a successful load.
func reseal(b []byte) []byte {
	b = slices.Clone(b)
	if len(b) >= 4 {
		binary.NativeEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	}
	return b
}

func TestRejectCorruptPayload(t *testing.T) {
	_, _, blob := buildSample(t, 6)
	b := append([]byte(nil), blob...)
	b[headerSize+40] ^= 0x40 // flip a bit inside outHead
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("accepted corrupt payload")
	}
	// A flipped adjacency byte beyond the head arrays must at minimum fail
	// the checksum.
	b2 := append([]byte(nil), blob...)
	b2[len(b2)/2] ^= 0x01
	if _, err := Read(bytes.NewReader(b2)); err == nil {
		t.Fatal("accepted corrupt payload (mid-file)")
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent"), true); err == nil {
		t.Fatal("opened a missing file")
	}
}

// FuzzReadFlatIndex throws mutated bytes at the fully-verified loader: it
// must reject or accept but never panic or read out of bounds.
func FuzzReadFlatIndex(f *testing.F) {
	_, _, blob := buildSample(f, 7)
	f.Add(blob)
	f.Add(blob[:headerSize+4])
	var small bytes.Buffer
	sg := testgraphs.Fig1()
	if _, err := Write(&small, sg, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input: the graph must be internally consistent enough
		// to traverse without panicking.
		n := l.G.NumNodes()
		for v := 0; v < n && v < 64; v++ {
			for _, e := range l.G.Out(graph.NodeID(v)) {
				_ = e
			}
		}
	})
}
