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
// so loading is one read, two linear checks and aliasing rather than
// parsing. kpjindex imports DIMACS input into it; kpjserver, kpjquery and
// kpjtune load it with -flat; WAL checkpoints and replica resync
// snapshots are the same bytes. Every load verifies the checksum and the
// whole adjacency.

// WriteFlat serializes g — adjacency, categories, and ix when non-nil —
// in the flat binary layout. ix must have been built over g.
func WriteFlat(w io.Writer, g *Graph, ix *Index) (int64, error) {
	if ix == nil {
		return flatindex.Write(w, g.g, nil)
	}
	return flatindex.Write(w, g.g, ix.ix)
}

// WriteFlatFile is WriteFlat to a file at path, replaced atomically by
// rename, so a reader never sees a half-written file.
func WriteFlatFile(path string, g *Graph, ix *Index) error {
	if ix == nil {
		return flatindex.WriteFile(path, g.g, nil)
	}
	return flatindex.WriteFile(path, g.g, ix.ix)
}

// ReadFlat decodes a flat payload from r with full verification
// (checksum plus adjacency validation) — the stream counterpart of
// OpenFlat for snapshots arriving over the wire (replica resync
// transfers) rather than from a file. The returned index is nil when the
// payload carries none.
func ReadFlat(r io.Reader) (*Graph, *Index, error) {
	l, err := flatindex.Read(r)
	if err != nil {
		return nil, nil, err
	}
	g, ix := wrapLoaded(l)
	return g, ix, nil
}

// OpenFlat loads a flat file written by WriteFlatFile: it reads the file
// in one pass into a buffer sized from its length and verifies it as
// ReadFlat does. The returned index is nil when the file carries none.
//
// The bool once selected an mmap load and is ignored, and the Closer
// does nothing; both stay until the benchmark harness stops using them.
func OpenFlat(path string, _ bool) (*Graph, *Index, io.Closer, error) {
	l, err := flatindex.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	g, ix := wrapLoaded(l)
	return g, ix, l, nil
}

func wrapLoaded(l *flatindex.Loaded) (*Graph, *Index) {
	if l.Index == nil {
		return newGraph(l.G), nil
	}
	return newGraph(l.G), &Index{ix: l.Index}
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
