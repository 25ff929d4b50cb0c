package kpj

import (
	"errors"
	"io"
	"slices"

	"kpj/internal/flatindex"
	"kpj/internal/landmark"
)

// This file exposes the persistence layer — the one on-disk format: a
// versioned flat binary file carrying the graph's CSR adjacency, its
// categories, and optionally its landmark index, stored in memory layout
// so loading is aliasing rather than parsing. kpjindex imports DIMACS
// input into it; kpjserver and kpjquery load it with -flat (kpjserver
// optionally with -mmap); WAL checkpoints and replica resync snapshots
// are the same bytes.

// WriteFlat serializes g — adjacency, categories, and ix when non-nil —
// in the flat binary layout. ix must have been built over g.
func WriteFlat(w io.Writer, g *Graph, ix *Index) (int64, error) {
	if ix == nil {
		return flatindex.Write(w, g.g, nil)
	}
	return flatindex.Write(w, g.g, ix.ix)
}

// WriteFlatFile is WriteFlat to a file at path, replaced atomically by
// rename (safe while another process has the old file mapped).
func WriteFlatFile(path string, g *Graph, ix *Index) error {
	if ix == nil {
		return flatindex.WriteFile(path, g.g, nil)
	}
	return flatindex.WriteFile(path, g.g, ix.ix)
}

// ReadFlat decodes a flat payload from r with full verification
// (checksum plus adjacency validation) — the in-memory counterpart of
// OpenFlat for snapshots arriving over the wire (WAL checkpoints,
// replica resync transfers) rather than from a file. The returned index
// is nil when the payload carries none.
func ReadFlat(r io.Reader) (*Graph, *Index, error) {
	l, err := flatindex.Read(r)
	if err != nil {
		return nil, nil, err
	}
	g := newGraph(l.G)
	var ix *Index
	if l.Index != nil {
		ix = &Index{ix: l.Index}
	}
	return g, ix, nil
}

// OpenFlat loads a flat file written by WriteFlatFile. With mmap true on
// a supporting platform (Linux) the file is mapped and the graph aliases
// it in place — O(1) startup with pages faulting in on demand, at the
// cost of skipping the checksum (structural header validation still
// runs). With mmap false (or elsewhere) the file is read into memory and
// fully verified. The returned index is nil when the file carries none.
//
// Generations derived by Index.Apply or WithDelta keep reading the file:
// they share the CSR head arrays (edge reweights), every landmark row
// page that holds no node whose distances changed and the untouched
// category sets with the loaded pair, and own only the two adjacency
// arrays plus copies of the other pages. So
// close the returned Closer only after the graph, the index and every
// generation derived from them by Apply are unreachable.
func OpenFlat(path string, mmap bool) (*Graph, *Index, io.Closer, error) {
	l, err := flatindex.Open(path, mmap)
	if err != nil {
		return nil, nil, nil, err
	}
	g := newGraph(l.G)
	var ix *Index
	if l.Index != nil {
		ix = &Index{ix: l.Index}
	}
	return g, ix, l, nil
}

// ErrGraphMismatch is returned by Index.Rebind when the target graph's
// adjacency differs from that of the graph the index was computed over.
var ErrGraphMismatch = errors.New("kpj: index was computed over a different graph")

// Rebind returns an index over g that shares ix's distance tables — how
// a server adopts the index of a flat file read with ReadFlat while it
// keeps serving its own graph generation. The tables are a function of
// the adjacency alone, so g must equal ix's graph edge for edge: the CSR
// arrays (heads and (to, w) rows, both directions) are compared in full
// and any difference fails with ErrGraphMismatch. Categories are not
// compared; the tables do not depend on them.
func (ix *Index) Rebind(g *Graph) (*Index, error) {
	oh, oa, ih, ia := ix.ix.Graph().CSR()
	goh, goa, gih, gia := g.g.CSR()
	if !slices.Equal(oh, goh) || !slices.Equal(oa, goa) || !slices.Equal(ih, gih) || !slices.Equal(ia, gia) {
		return nil, ErrGraphMismatch
	}
	ids, pages := ix.ix.Rows()
	nix, err := landmark.FromRows(g.g, ids, pages)
	if err != nil {
		return nil, err
	}
	return &Index{ix: nix}, nil
}
