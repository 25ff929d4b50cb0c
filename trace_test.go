package kpj_test

import (
	"bytes"
	"strings"
	"testing"

	"kpj"
)

func TestTraceWriterOutput(t *testing.T) {
	g := fig1(t)
	for _, algo := range allAlgorithms {
		var buf bytes.Buffer
		paths, err := g.TopKJoin(0, "hotel", 3, &kpj.Options{Algorithm: algo, Trace: &buf})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(paths) != 3 {
			t.Fatalf("%v: %d paths", algo, len(paths))
		}
		out := buf.String()
		if strings.Count(out, "emit ") != 3 {
			t.Fatalf("%v: trace has %d emit lines, want 3:\n%s", algo, strings.Count(out, "emit "), out)
		}
		if !strings.Contains(out, "length=5") {
			t.Fatalf("%v: first path length missing from trace:\n%s", algo, out)
		}
		// Virtual nodes print symbolically.
		if strings.Contains(out, "node=15") || strings.Contains(out, "node=16") {
			t.Fatalf("%v: raw virtual node ids leaked into trace:\n%s", algo, out)
		}
	}
}

func TestValidatePaths(t *testing.T) {
	g := fig1(t)
	hotels := []kpj.NodeID{3, 5, 6}
	paths, err := g.TopKJoin(0, "hotel", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := kpj.ValidatePaths(g, []kpj.NodeID{0}, hotels, paths); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	mutate := func(f func(ps []kpj.Path)) []kpj.Path {
		cp := make([]kpj.Path, len(paths))
		for i, p := range paths {
			cp[i] = kpj.Path{Nodes: append([]kpj.NodeID(nil), p.Nodes...), Length: p.Length}
		}
		f(cp)
		return cp
	}
	cases := []struct {
		name string
		ps   []kpj.Path
	}{
		{"empty path", mutate(func(ps []kpj.Path) { ps[0].Nodes = nil })},
		{"wrong source", mutate(func(ps []kpj.Path) { ps[0].Nodes[0] = 9 })},
		{"wrong target", mutate(func(ps []kpj.Path) { ps[0].Nodes[len(ps[0].Nodes)-1] = 9 })},
		{"bad length", mutate(func(ps []kpj.Path) { ps[0].Length += 3 })},
		{"out of order", mutate(func(ps []kpj.Path) { ps[0], ps[4] = ps[4], ps[0] })},
		{"revisit", mutate(func(ps []kpj.Path) {
			ps[1].Nodes = []kpj.NodeID{0, 7, 0, 7, 6}
		})},
		{"not an edge", mutate(func(ps []kpj.Path) {
			ps[1].Nodes = []kpj.NodeID{0, 14, 5}
		})},
		{"out of range", mutate(func(ps []kpj.Path) {
			ps[1].Nodes = []kpj.NodeID{0, 99, 6}
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := kpj.ValidatePaths(g, []kpj.NodeID{0}, hotels, tc.ps); err == nil {
				t.Fatal("corrupted result accepted")
			}
		})
	}
}
