package graph

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

const sampleGr = `c tiny test graph
p sp 3 3
a 1 2 10
a 2 3 20
a 3 1 5
`

func TestReadGr(t *testing.T) {
	g, err := ReadGr(strings.NewReader(sampleGr))
	if err != nil {
		t.Fatalf("ReadGr: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 10 {
		t.Fatalf("edge (0,1) = (%d,%v)", w, ok)
	}
	if w, ok := g.HasEdge(2, 0); !ok || w != 5 {
		t.Fatalf("edge (2,0) = (%d,%v)", w, ok)
	}
}

func TestReadGrErrors(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{"no problem line", "a 1 2 3\n"},
		{"missing problem line entirely", "c only comments\n"},
		{"duplicate problem line", "p sp 1 0\np sp 1 0\n"},
		{"bad problem line", "p xx 1 0\n"},
		{"bad node count", "p sp x 0\n"},
		{"bad edge count", "p sp 1 x\n"},
		{"bad arc fields", "p sp 2 1\na 1 2\n"},
		{"bad arc number", "p sp 2 1\na 1 b 3\n"},
		{"unknown record", "p sp 1 0\nz 1\n"},
		{"edge count mismatch", "p sp 2 2\na 1 2 3\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadGr(strings.NewReader(tt.in)); !errors.Is(err, errFormat) {
				t.Fatalf("err = %v, want ErrFormat", err)
			}
		})
	}
}

func TestGrRoundTrip(t *testing.T) {
	g, err := NewBuilder(4).AddEdge(0, 1, 7).AddBiEdge(1, 3, 2).AddEdge(2, 2, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGr(&buf, g); err != nil {
		t.Fatalf("WriteGr: %v", err)
	}
	g2, err := ReadGr(&buf)
	if err != nil {
		t.Fatalf("ReadGr(round trip): %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		a, b := g.Out(v), g2.Out(v)
		if len(a) != len(b) {
			t.Fatalf("Out(%d) degree changed", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Out(%d)[%d] = %v vs %v", v, i, a[i], b[i])
			}
		}
	}
}

func TestCategoriesRoundTrip(t *testing.T) {
	g, err := NewBuilder(6).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddCategory("hotel", []NodeID{1, 4}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddCategory("lake", []NodeID{0}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCategories(&buf, g); err != nil {
		t.Fatalf("WriteCategories: %v", err)
	}
	g2, err := NewBuilder(6).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadCategories(&buf, g2); err != nil {
		t.Fatalf("ReadCategories: %v", err)
	}
	hotel, err := g2.Category("hotel")
	if err != nil || len(hotel) != 2 || hotel[0] != 1 || hotel[1] != 4 {
		t.Fatalf("hotel = %v, %v", hotel, err)
	}
	lake, err := g2.Category("lake")
	if err != nil || len(lake) != 1 || lake[0] != 0 {
		t.Fatalf("lake = %v, %v", lake, err)
	}
}

func TestReadCategoriesComments(t *testing.T) {
	g, err := NewBuilder(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	in := "# header\nhotel 1 # trailing\n\nhotel 2\n"
	if err := ReadCategories(strings.NewReader(in), g); err != nil {
		t.Fatalf("ReadCategories: %v", err)
	}
	nodes, _ := g.Category("hotel")
	if len(nodes) != 2 {
		t.Fatalf("hotel = %v", nodes)
	}
}

func TestReadCategoriesErrors(t *testing.T) {
	g, err := NewBuilder(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadCategories(strings.NewReader("hotel\n"), g); !errors.Is(err, errFormat) {
		t.Fatalf("short line err = %v", err)
	}
	if err := ReadCategories(strings.NewReader("hotel x\n"), g); !errors.Is(err, errFormat) {
		t.Fatalf("bad id err = %v", err)
	}
	if err := ReadCategories(strings.NewReader("hotel 99\n"), g); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("range err = %v", err)
	}
}
