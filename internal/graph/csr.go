package graph

import "fmt"

// This file exposes the CSR adjacency for flat serialization and
// reassembles a Graph directly from prebuilt arrays, skipping the
// Builder's sort/dedup passes entirely. internal/flatindex is the only
// intended consumer.

// ErrBadCSR reports structurally invalid CSR arrays handed to FromCSR.
var ErrBadCSR = fmt.Errorf("graph: malformed CSR arrays")

// CSR returns the graph's adjacency arrays. The slices alias internal
// storage and must not be modified; they stay valid for the graph's
// lifetime.
func (g *Graph) CSR() (outHead []int32, outAdj []Edge, inHead []int32, inAdj []Edge) {
	return g.outHead, g.outAdj, g.inHead, g.inAdj
}

// FromCSR assembles a Graph that aliases the given CSR arrays — the
// zero-copy path used by the flat index loader, where the arrays live in
// the buffer the file was read into. It validates the arrays in full: the
// head arrays (O(n)), then both adjacency lists (O(m)) for target ranges,
// weight ranges, per-node destination ordering, and that maxW is exactly
// the heaviest weight present. It does not check that the in-adjacency
// mirrors the out-adjacency; Apply checks that for each edge it patches.
//
// The graph starts with no categories; register them with AddCategory.
func FromCSR(n int, outHead []int32, outAdj []Edge, inHead []int32, inAdj []Edge, maxW Weight) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative node count %d", ErrBadCSR, n)
	}
	if len(outAdj) != len(inAdj) {
		return nil, fmt.Errorf("%w: %d out-edges vs %d in-edges", ErrBadCSR, len(outAdj), len(inAdj))
	}
	if maxW < 0 || maxW >= Infinity {
		return nil, fmt.Errorf("%w: max weight %d out of range", ErrBadCSR, maxW)
	}
	m := len(outAdj)
	if err := checkHeads("out", n, outHead, m); err != nil {
		return nil, err
	}
	if err := checkHeads("in", n, inHead, m); err != nil {
		return nil, err
	}
	g := &Graph{
		n: n, m: m,
		outHead: outHead, outAdj: outAdj,
		inHead: inHead, inAdj: inAdj,
		maxW: maxW,
	}
	var seen Weight
	for _, adj := range [2][]Edge{outAdj, inAdj} {
		for _, e := range adj {
			if e.To < 0 || int(e.To) >= n {
				return nil, fmt.Errorf("%w: edge target %d with %d nodes", ErrBadCSR, e.To, n)
			}
			if e.W < 0 || e.W > maxW {
				return nil, fmt.Errorf("%w: edge weight %d outside [0,%d]", ErrBadCSR, e.W, maxW)
			}
			if e.W > seen {
				seen = e.W
			}
		}
	}
	if m > 0 && seen != maxW {
		return nil, fmt.Errorf("%w: stored max weight %d, heaviest edge is %d", ErrBadCSR, maxW, seen)
	}
	// Within-node destination order is what makes iteration (and thus
	// every tie-broken result) deterministic; enforce it eagerly.
	for v := 0; v < n; v++ {
		for _, adj := range [2][]Edge{g.Out(NodeID(v)), g.In(NodeID(v))} {
			for i := 1; i < len(adj); i++ {
				if adj[i-1].To > adj[i].To {
					return nil, fmt.Errorf("%w: adjacency of node %d not sorted by target", ErrBadCSR, v)
				}
			}
		}
	}
	return g, nil
}

// checkHeads validates one CSR head array: length n+1, starts at 0, ends
// at m, monotone non-decreasing.
func checkHeads(which string, n int, head []int32, m int) error {
	if len(head) != n+1 {
		return fmt.Errorf("%w: %s head length %d, want %d", ErrBadCSR, which, len(head), n+1)
	}
	if head[0] != 0 || int(head[n]) != m {
		return fmt.Errorf("%w: %s head spans [%d,%d], want [0,%d]", ErrBadCSR, which, head[0], head[n], m)
	}
	for i := 1; i <= n; i++ {
		if head[i] < head[i-1] {
			return fmt.Errorf("%w: %s head decreases at %d", ErrBadCSR, which, i)
		}
	}
	return nil
}
