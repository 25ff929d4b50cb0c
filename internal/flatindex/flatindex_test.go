package flatindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"kpj/internal/core"
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

// TestMmapMatchesMemory is the loader-equivalence oracle: the mmap path
// and the verified read path must hand back graphs and indexes that
// answer queries identically.
func TestMmapMatchesMemory(t *testing.T) {
	g, _, blob := buildSample(t, 3)
	path := filepath.Join(t.TempDir(), "sample.kpjflat")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	mem, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	mapped, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if runtime.GOOS == "linux" && !mapped.Mapped {
		t.Fatal("mmap requested on linux but loader fell back")
	}
	sameGraph(t, mem.G, mapped.G)
	sameGraph(t, g, mapped.G)

	targets, _ := mapped.G.Category("T")
	q := core.Query{Sources: []graph.NodeID{1}, Targets: targets, K: 10}
	for name, fn := range core.Algorithms() {
		a, err := fn(mem.G, q, core.Options{Index: mem.Index})
		if err != nil {
			t.Fatalf("%s (memory): %v", name, err)
		}
		b, err := fn(mapped.G, q, core.Options{Index: mapped.Index})
		if err != nil {
			t.Fatalf("%s (mmap): %v", name, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d paths", name, len(a), len(b))
		}
		for i := range a {
			if a[i].Length != b[i].Length || len(a[i].Nodes) != len(b[i].Nodes) {
				t.Fatalf("%s path %d: %v vs %v", name, i, a[i], b[i])
			}
			for j := range a[i].Nodes {
				if a[i].Nodes[j] != b[i].Nodes[j] {
					t.Fatalf("%s path %d: %v vs %v", name, i, a[i], b[i])
				}
			}
		}
	}
}

func TestRejectTruncated(t *testing.T) {
	_, _, blob := buildSample(t, 4)
	for _, cut := range []int{0, 7, headerSize - 1, headerSize + 3, len(blob) / 2, len(blob) - 1} {
		if _, err := Read(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("accepted file truncated to %d bytes", cut)
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
		// Header fields must also be rejected structurally with the CRC
		// skipped — the mmap loader never runs the checksum.
		if _, err := decode(alignedCopy(b), false, false, nil); err == nil {
			t.Errorf("corrupt %s accepted by the no-verify (mmap) decoder", name)
		} else if errors.Is(err, ErrChecksum) {
			t.Errorf("corrupt %s reached the checksum on the no-verify decoder", name)
		}
	}
	// A version 1 file has the same size as this build's layout but stores
	// the landmark distances table-major: it must be refused, not misread.
	if _, err := Read(bytes.NewReader(cases["version 1"])); !errors.Is(err, ErrFormat) {
		t.Errorf("version 1 file: %v, want ErrFormat", err)
	}
}

func TestRejectCorruptPayload(t *testing.T) {
	_, _, blob := buildSample(t, 6)
	b := append([]byte(nil), blob...)
	b[headerSize+40] ^= 0x40 // flip a bit inside outHead
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("accepted corrupt payload")
	}
	// A flipped adjacency byte beyond the head arrays must at minimum fail
	// the checksum on the verified path.
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
