// Package flatindex persists a graph — CSR adjacency, categories, and
// optionally its landmark index — in a versioned flat binary layout whose
// array sections are stored exactly as Go lays them out in memory. The
// loader reads the file into one aligned buffer and aliases the sections
// in place, with no parsing, sorting, or table rebuilds: a server
// restarts in one read plus two linear checks instead of re-parsing a
// DIMACS file and re-running |L| Dijkstras.
//
// Layout (all fields native-endian; the header records a byte-order
// sentinel and the Edge struct geometry, so a file is only readable on a
// platform with the same layout — a mismatch is detected, never
// misinterpreted):
//
//	header   96 B   magic "KPJFLAT1", version, sentinel, edge geometry,
//	                flags, n, m, maxW, section offsets, file size
//	graph    @96    outHead (n+1)·4 │ outAdj m·sizeof(Edge) │
//	                inHead  (n+1)·4 │ inAdj  m·sizeof(Edge)   (16-aligned)
//	cats     @catOff count, then per category: name, sorted node ids
//	lmarks   @lmOff  L, ids L·4 │ rows n·2L·4 (absent when flags bit 0 is
//	                 clear). The rows are node-major, exactly the index's
//	                 in-memory pages end to end: node v's row is
//	                 δ(w_0,v)…δ(w_{L-1},v), δ(v,w_0)…δ(v,w_{L-1}).
//	crc      4 B    IEEE CRC32 of everything before it
//
// Version 1 stored the landmark section table-major (fwd L·n·4, bwd
// L·n·4); this build refuses it with ErrFormat rather than misread it.
//
// Every load verifies the checksum and fully validates the adjacency
// (graph.FromCSR). The one property left unchecked is that the
// in-adjacency mirrors the out-adjacency; graph.Apply checks it for each
// edge it patches.
package flatindex

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"unsafe"

	"kpj/internal/graph"
	"kpj/internal/landmark"
)

// Errors returned by the loaders.
var (
	ErrFormat   = errors.New("flatindex: malformed flat index file")
	ErrChecksum = errors.New("flatindex: checksum mismatch")
	errPlatform = errors.New("flatindex: file written on an incompatible platform")
)

var magic = [8]byte{'K', 'P', 'J', 'F', 'L', 'A', 'T', '1'}

const (
	formatVersion  = 2
	orderSentinel  = uint32(0x01020304) // native byte order probe
	headerSize     = 96
	flagLandmarks  = uint64(1)
	sectionAlign   = 16
	maxLandmarks   = 1 << 16
	maxNodes       = 1 << 31 // NodeID is int32
	maxCategories  = 1 << 20
	maxNameLen     = 1 << 16
	edgeSize       = uint32(unsafe.Sizeof(graph.Edge{}))
	edgeWeightOffs = uint32(unsafe.Offsetof(graph.Edge{}.W))
)

// header is the decoded fixed-size prefix.
type header struct {
	flags    uint64
	n, m     uint64
	maxW     uint64
	catOff   uint64
	lmOff    uint64
	fileSize uint64
}

func align(x uint64) uint64 { return (x + sectionAlign - 1) &^ (sectionAlign - 1) }

// layout computes every section offset for a graph/index pair up front,
// so the writer can stream the header first without seeking back.
type layout struct {
	h         header
	outHeadAt uint64
	outAdjAt  uint64
	inHeadAt  uint64
	inAdjAt   uint64
	idsAt     uint64
	rowsAt    uint64
}

func computeLayout(g *graph.Graph, ix *landmark.Index, catBytes uint64) layout {
	n, m := uint64(g.NumNodes()), uint64(g.NumEdges())
	var l layout
	l.h.n, l.h.m = n, m
	l.h.maxW = uint64(g.MaxEdgeWeight())
	l.outHeadAt = headerSize
	l.outAdjAt = align(l.outHeadAt + (n+1)*4)
	l.inHeadAt = align(l.outAdjAt + m*uint64(edgeSize))
	l.inAdjAt = align(l.inHeadAt + (n+1)*4)
	l.h.catOff = align(l.inAdjAt + m*uint64(edgeSize))
	end := align(l.h.catOff + catBytes)
	if ix != nil {
		l.h.flags |= flagLandmarks
		l.h.lmOff = end
		ids, _ := ix.Rows()
		L := uint64(len(ids))
		l.idsAt = align(l.h.lmOff + 4)
		l.rowsAt = align(l.idsAt + L*4)
		end = align(l.rowsAt + n*2*L*4)
	}
	l.h.fileSize = end + 4 // trailing CRC
	return l
}

// countingWriter tracks position and folds everything into the CRC.
type countingWriter struct {
	w   io.Writer
	crc [4]byte // reused scratch for integer encoding
	sum uint32
	off uint64
	err error
}

func (cw *countingWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	if _, err := cw.w.Write(p); err != nil {
		cw.err = err
		return
	}
	cw.sum = crc32.Update(cw.sum, crc32.IEEETable, p)
	cw.off += uint64(len(p))
}

func (cw *countingWriter) u32(v uint32) {
	binary.NativeEndian.PutUint32(cw.crc[:], v)
	cw.write(cw.crc[:])
}

var padding [sectionAlign]byte

// padTo writes zero bytes up to absolute offset target.
func (cw *countingWriter) padTo(target uint64) {
	for cw.err == nil && cw.off < target {
		chunk := target - cw.off
		if chunk > sectionAlign {
			chunk = sectionAlign
		}
		cw.write(padding[:chunk])
	}
}

// bytesOf reinterprets a slice of fixed-size elements as raw bytes.
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var t T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(t)))
}

// Write serializes g (and ix, when non-nil) in the flat layout and
// returns the byte count. ix must have been built over g. Output is
// buffered: the landmark rows go out one 64-node page at a time, which
// would otherwise be one write call per page.
func Write(w io.Writer, g *graph.Graph, ix *landmark.Index) (int64, error) {
	catBlob := encodeCategories(g)
	l := computeLayout(g, ix, uint64(len(catBlob)))

	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &countingWriter{w: bw}
	cw.write(magic[:])
	cw.u32(formatVersion)
	cw.u32(orderSentinel)
	cw.u32(edgeSize)
	cw.u32(edgeWeightOffs)
	for _, v := range []uint64{l.h.flags, l.h.n, l.h.m, l.h.maxW, l.h.catOff, l.h.lmOff, l.h.fileSize} {
		var buf [8]byte
		binary.NativeEndian.PutUint64(buf[:], v)
		cw.write(buf[:])
	}
	cw.padTo(headerSize)

	outHead, outAdj, inHead, inAdj := g.CSR()
	cw.write(bytesOf(outHead))
	cw.padTo(l.outAdjAt)
	cw.write(bytesOf(outAdj))
	cw.padTo(l.inHeadAt)
	cw.write(bytesOf(inHead))
	cw.padTo(l.inAdjAt)
	cw.write(bytesOf(inAdj))
	cw.padTo(l.h.catOff)
	cw.write(catBlob)

	if ix != nil {
		cw.padTo(l.h.lmOff)
		ids, pages := ix.Rows()
		cw.u32(uint32(len(ids)))
		cw.padTo(l.idsAt)
		cw.write(bytesOf(ids))
		cw.padTo(l.rowsAt)
		for _, p := range pages {
			cw.write(bytesOf(p))
		}
	}
	cw.padTo(l.h.fileSize - 4)
	// The trailing CRC covers everything before it and is not part of the
	// running sum.
	sum := cw.sum
	if cw.err == nil {
		var buf [4]byte
		binary.NativeEndian.PutUint32(buf[:], sum)
		if _, err := cw.w.Write(buf[:]); err != nil {
			cw.err = err
		}
		cw.off += 4
	}
	if cw.err == nil {
		cw.err = bw.Flush()
	}
	return int64(cw.off), cw.err
}

// WriteFile serializes to path via Write. The bytes go to path+".tmp",
// are fsynced and renamed into place, so neither a crash or power cut
// mid-write nor a concurrent reader ever sees a half-written file at
// path. The directory is not synced: a rename a power cut undoes leaves
// the previous file, which still loads.
func WriteFile(path string, g *graph.Graph, ix *landmark.Index) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = Write(f, g, ix)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// encodeCategories flattens the category map: u32 count, then per
// category (sorted by name) u32 nameLen, u32 nodeCount, name bytes padded
// to 4, node ids. Categories are small relative to the adjacency, so they
// are decoded eagerly (copied) rather than aliased.
func encodeCategories(g *graph.Graph) []byte {
	names := g.Categories()
	var out []byte
	var buf [4]byte
	u32 := func(v uint32) {
		binary.NativeEndian.PutUint32(buf[:], v)
		out = append(out, buf[:]...)
	}
	u32(uint32(len(names)))
	for _, name := range names {
		nodes, _ := g.Category(name)
		u32(uint32(len(name)))
		u32(uint32(len(nodes)))
		out = append(out, name...)
		for len(out)%4 != 0 {
			out = append(out, 0)
		}
		out = append(out, bytesOf(nodes)...)
	}
	return out
}

// Loaded is a decoded flat index: the graph and the optional landmark
// index, both aliasing the one buffer the file was read into.
type Loaded struct {
	G     *graph.Graph
	Index *landmark.Index // nil when the file carries no landmark section
}

// Close does nothing: a Loaded owns no resource beyond garbage-collected
// memory. It is kept only for callers that still close what Open returns.
func (l *Loaded) Close() error { return nil }

// Read decodes a flat index from r with full verification: checksum plus
// O(m) adjacency validation. It is the loader for streams of unknown
// length, such as /resync bodies; ReadFile is the one for files.
func Read(r io.Reader) (*Loaded, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decode(alignedCopy(raw))
}

// ReadFile reads the file at path in one pass into a buffer sized from
// Stat, then decodes it with the same verification as Read.
func ReadFile(path string) (*Loaded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerSize+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrFormat, size)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("%w: %d bytes does not fit in memory", ErrFormat, size)
	}
	data := alignedBuffer(int(size))
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("flatindex: read %s: %w", path, err)
	}
	return decode(data)
}

// Open is ReadFile. The bool once asked for an mmap load and is ignored;
// it stays until the benchmark harness stops passing it.
func Open(path string, _ bool) (*Loaded, error) {
	return ReadFile(path)
}

// alignedBuffer returns a zeroed n-byte buffer (n > 0) starting on a
// sectionAlign boundary: it is allocated in 16-byte elements, and Go's
// size classes for multiples of 16 bytes (and its page-aligned large
// objects) keep every such allocation 16-aligned. sliceOf still checks.
func alignedBuffer(n int) []byte {
	words := make([][sectionAlign / 8]uint64, (n+sectionAlign-1)/sectionAlign)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// alignedCopy returns data in a 16-byte-aligned buffer, copying only when
// the original is misaligned (io.ReadAll buffers virtually always are
// aligned; fuzzed inputs may not be).
func alignedCopy(data []byte) []byte {
	if len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))%sectionAlign == 0 {
		return data
	}
	buf := alignedBuffer(len(data))
	copy(buf, data)
	return buf
}

// view returns data[off:off+size] after bounds-checking the arithmetic
// (off and size come from the file, so they are untrusted).
func view(data []byte, off, size uint64) ([]byte, error) {
	if off > uint64(len(data)) || size > uint64(len(data))-off {
		return nil, fmt.Errorf("%w: section [%d,+%d) outside %d-byte file", ErrFormat, off, size, len(data))
	}
	return data[off : off+size : off+size], nil
}

// sliceOf aliases a typed slice over a validated, aligned byte view.
func sliceOf[T any](data []byte, off, count uint64) ([]T, error) {
	var t T
	es := uint64(unsafe.Sizeof(t))
	b, err := view(data, off, count*es)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(t) != 0 {
		return nil, fmt.Errorf("%w: section at %d misaligned", ErrFormat, off)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), count), nil
}

// decode checks the header, then the checksum, then the CSR in full, and
// aliases the sections of data.
func decode(data []byte) (*Loaded, error) {
	h, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	sum := crc32.ChecksumIEEE(data[:len(data)-4])
	if got := binary.NativeEndian.Uint32(data[len(data)-4:]); sum != got {
		return nil, ErrChecksum
	}
	l := layoutFromHeader(h)
	outHead, err := sliceOf[int32](data, l.outHeadAt, h.n+1)
	if err != nil {
		return nil, err
	}
	outAdj, err := sliceOf[graph.Edge](data, l.outAdjAt, h.m)
	if err != nil {
		return nil, err
	}
	inHead, err := sliceOf[int32](data, l.inHeadAt, h.n+1)
	if err != nil {
		return nil, err
	}
	inAdj, err := sliceOf[graph.Edge](data, l.inAdjAt, h.m)
	if err != nil {
		return nil, err
	}
	g, err := graph.FromCSR(int(h.n), outHead, outAdj, inHead, inAdj, graph.Weight(h.maxW))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if err := decodeCategories(data, h.catOff, g); err != nil {
		return nil, err
	}
	var ix *landmark.Index
	if h.flags&flagLandmarks != 0 {
		if ix, err = decodeLandmarks(data, l, h, g); err != nil {
			return nil, err
		}
	}
	return &Loaded{G: g, Index: ix}, nil
}

func decodeHeader(data []byte) (header, error) {
	var h header
	if uint64(len(data)) < headerSize+4 {
		return h, fmt.Errorf("%w: %d bytes is shorter than the header", ErrFormat, len(data))
	}
	if *(*[8]byte)(data[:8]) != magic {
		return h, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := binary.NativeEndian.Uint32(data[8:]); v != formatVersion {
		return h, fmt.Errorf("%w: version %d, this build reads %d", ErrFormat, v, formatVersion)
	}
	if s := binary.NativeEndian.Uint32(data[12:]); s != orderSentinel {
		return h, fmt.Errorf("%w: byte-order sentinel %#x", errPlatform, s)
	}
	if es := binary.NativeEndian.Uint32(data[16:]); es != edgeSize {
		return h, fmt.Errorf("%w: edge size %d, this build uses %d", errPlatform, es, edgeSize)
	}
	if wo := binary.NativeEndian.Uint32(data[20:]); wo != edgeWeightOffs {
		return h, fmt.Errorf("%w: edge weight offset %d, this build uses %d", errPlatform, wo, edgeWeightOffs)
	}
	h.flags = binary.NativeEndian.Uint64(data[24:])
	h.n = binary.NativeEndian.Uint64(data[32:])
	h.m = binary.NativeEndian.Uint64(data[40:])
	h.maxW = binary.NativeEndian.Uint64(data[48:])
	h.catOff = binary.NativeEndian.Uint64(data[56:])
	h.lmOff = binary.NativeEndian.Uint64(data[64:])
	h.fileSize = binary.NativeEndian.Uint64(data[72:])
	if h.fileSize != uint64(len(data)) {
		return h, fmt.Errorf("%w: header says %d bytes, file has %d", ErrFormat, h.fileSize, len(data))
	}
	if h.n >= maxNodes || h.m >= maxNodes {
		return h, fmt.Errorf("%w: implausible n=%d m=%d", ErrFormat, h.n, h.m)
	}
	if h.flags&^flagLandmarks != 0 {
		return h, fmt.Errorf("%w: unknown flags %#x", ErrFormat, h.flags)
	}
	if h.flags&flagLandmarks != 0 && h.lmOff == 0 {
		return h, fmt.Errorf("%w: landmark flag set but no section offset", ErrFormat)
	}
	return h, nil
}

// layoutFromHeader recomputes the intra-section offsets the writer used;
// they are pure functions of the header fields, so they are not stored.
func layoutFromHeader(h header) layout {
	var l layout
	l.h = h
	l.outHeadAt = headerSize
	l.outAdjAt = align(l.outHeadAt + (h.n+1)*4)
	l.inHeadAt = align(l.outAdjAt + h.m*uint64(edgeSize))
	l.inAdjAt = align(l.inHeadAt + (h.n+1)*4)
	return l
}

func decodeCategories(data []byte, off uint64, g *graph.Graph) error {
	b, err := view(data, off, 4)
	if err != nil {
		return err
	}
	count := uint64(binary.NativeEndian.Uint32(b))
	if count > maxCategories {
		return fmt.Errorf("%w: implausible category count %d", ErrFormat, count)
	}
	pos := off + 4
	for i := uint64(0); i < count; i++ {
		hdr, err := view(data, pos, 8)
		if err != nil {
			return err
		}
		nameLen := uint64(binary.NativeEndian.Uint32(hdr))
		nodeCount := uint64(binary.NativeEndian.Uint32(hdr[4:]))
		if nameLen == 0 || nameLen > maxNameLen || nodeCount > uint64(g.NumNodes()) {
			return fmt.Errorf("%w: category %d name/node sizes %d/%d", ErrFormat, i, nameLen, nodeCount)
		}
		pos += 8
		nb, err := view(data, pos, nameLen)
		if err != nil {
			return err
		}
		name := string(nb)
		pos += nameLen
		pos = (pos + 3) &^ 3
		nodes, err := sliceOf[graph.NodeID](data, pos, nodeCount)
		if err != nil {
			return err
		}
		pos += nodeCount * 4
		if !sort.SliceIsSorted(nodes, func(a, b int) bool { return nodes[a] < nodes[b] }) {
			return fmt.Errorf("%w: category %q nodes not sorted", ErrFormat, name)
		}
		// AddCategory copies, dedups, and range-checks the ids.
		if err := g.AddCategory(name, nodes); err != nil {
			return fmt.Errorf("%w: category %q: %v", ErrFormat, name, err)
		}
	}
	return nil
}

func decodeLandmarks(data []byte, l layout, h header, g *graph.Graph) (*landmark.Index, error) {
	b, err := view(data, h.lmOff, 4)
	if err != nil {
		return nil, err
	}
	L := uint64(binary.NativeEndian.Uint32(b))
	if L == 0 || L > maxLandmarks {
		return nil, fmt.Errorf("%w: implausible landmark count %d", ErrFormat, L)
	}
	idsAt := align(h.lmOff + 4)
	rowsAt := align(idsAt + L*4)
	ids, err := sliceOf[graph.NodeID](data, idsAt, L)
	if err != nil {
		return nil, err
	}
	rows, err := sliceOf[int32](data, rowsAt, h.n*2*L)
	if err != nil {
		return nil, err
	}
	ix, err := landmark.FromRows(g, ids, [][]int32{rows})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return ix, nil
}
