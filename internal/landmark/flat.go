package landmark

import (
	"fmt"

	"kpj/internal/graph"
)

// This file exposes the distance rows for flat serialization and
// reassembles an Index from prebuilt rows without rerunning the
// construction Dijkstras. The intended consumers are internal/flatindex
// (load) and kpj.Index.Rebind (reload onto the graph already being served).

// ErrBadTables reports structurally invalid rows handed to FromRows.
var ErrBadTables = fmt.Errorf("landmark: malformed distance tables")

// Rows returns the landmark ids and the row pages: concatenated in order,
// the pages are the node-major rows of all g.NumNodes() nodes, 2·L entries
// each — δ(ids[0],v)…δ(ids[L-1],v), then δ(v,ids[0])…δ(v,ids[L-1]). The
// slices alias internal storage and must not be modified.
func (ix *Index) Rows() (ids []graph.NodeID, pages [][]int32) {
	return ix.landmarks, ix.pages
}

// FromRows assembles an Index over g that aliases the given rows — the
// zero-copy path used by the flat index loader and by Rebind. runs,
// concatenated, are the node-major rows Rows describes; every run but the
// last must end on a page boundary (a multiple of 64 rows), so the pages
// are sliced out of the runs without copying. Rows may point into the
// buffer a flat file was read into; the index keeps that buffer alive.
// Validation is O(L + pages): shapes and landmark id ranges. Distance
// entries are trusted (a corrupt entry weakens or breaks lower bounds,
// which the loader's checksum is responsible for catching).
func FromRows(g *graph.Graph, ids []graph.NodeID, runs [][]int32) (*Index, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: no landmarks", ErrBadTables)
	}
	n := g.NumNodes()
	for _, id := range ids {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("%w: landmark id %d out of range", ErrBadTables, id)
		}
	}
	w := 2 * len(ids)
	pw := pageNodes * w
	pages := make([][]int32, 0, (n+pageNodes-1)>>pageShift)
	total := 0
	for k, r := range runs {
		if len(r)%w != 0 || (k < len(runs)-1 && len(r)%pw != 0) {
			return nil, fmt.Errorf("%w: run %d of %d entries is not whole pages of %d-entry rows", ErrBadTables, k, len(r), w)
		}
		total += len(r)
		for len(r) > 0 {
			m := min(len(r), pw)
			pages = append(pages, r[:m:m])
			r = r[m:]
		}
	}
	if total != n*w {
		return nil, fmt.Errorf("%w: %d entries, want %d rows of %d", ErrBadTables, total, n, w)
	}
	return assemble(g, shapeOf(g), ids, pages), nil
}
