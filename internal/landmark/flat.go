package landmark

import (
	"fmt"

	"kpj/internal/graph"
)

// This file exposes the distance tables for flat (mmap-able)
// serialization and reassembles an Index from prebuilt tables without
// rerunning the construction Dijkstras. The intended consumers are
// internal/flatindex (load) and kpj.Index.Rebind (reload onto the graph
// already being served).

// ErrBadTables reports structurally invalid tables handed to FromTables.
var ErrBadTables = fmt.Errorf("landmark: malformed distance tables")

// Tables returns the landmark ids and the forward/backward compressed
// distance tables (one row of g.NumNodes() entries per landmark). The
// slices alias internal storage and must not be modified.
func (ix *Index) Tables() (ids []graph.NodeID, fwd, bwd [][]int32) {
	return ix.landmarks, ix.fwd, ix.bwd
}

// FromTables assembles an Index over g that aliases the given tables —
// the zero-copy path used by the flat index loader. Rows may point into
// a mmap'd file; they must stay valid for the index's lifetime.
// Validation is O(L): row shapes and landmark id ranges. Distance
// entries are trusted (a corrupt entry weakens or breaks lower bounds,
// which the loader's checksum is responsible for catching).
func FromTables(g *graph.Graph, ids []graph.NodeID, fwd, bwd [][]int32) (*Index, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: no landmarks", ErrBadTables)
	}
	if len(fwd) != len(ids) || len(bwd) != len(ids) {
		return nil, fmt.Errorf("%w: %d ids but %d fwd / %d bwd rows", ErrBadTables, len(ids), len(fwd), len(bwd))
	}
	n := g.NumNodes()
	for i, id := range ids {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("%w: landmark id %d out of range", ErrBadTables, id)
		}
		if len(fwd[i]) != n || len(bwd[i]) != n {
			return nil, fmt.Errorf("%w: row %d has %d/%d entries, want %d", ErrBadTables, i, len(fwd[i]), len(bwd[i]), n)
		}
	}
	return newIndex(g, ids, fwd, bwd), nil
}
