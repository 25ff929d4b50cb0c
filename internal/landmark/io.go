package landmark

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"kpj/internal/fault"
	"kpj/internal/graph"
)

// The paper builds the landmark index offline (O(|L|(m + n log n)) time);
// this file provides the persistence that makes "offline" real: a compact
// binary format with a graph fingerprint (so an index cannot be loaded
// against the wrong graph) and a CRC32 integrity check.
//
// Layout (all little-endian):
//
//	magic   [8]byte  "KPJLMK1\n"
//	n       uint64   node count of the indexed graph
//	m       uint64   edge count (fingerprint)
//	wsum    uint64   total edge weight (fingerprint)
//	L       uint64   landmark count
//	ids     [L]int32
//	fwd     [L][n]int32
//	bwd     [L][n]int32
//	crc     uint32   CRC32 (IEEE) of everything after the magic

var indexMagic = [8]byte{'K', 'P', 'J', 'L', 'M', 'K', '1', '\n'}

// Errors returned by index deserialization.
var (
	ErrIndexFormat   = errors.New("landmark: malformed index file")
	ErrIndexChecksum = errors.New("landmark: index checksum mismatch")
	ErrIndexMismatch = errors.New("landmark: index was built for a different graph")
)

// WriteTo serializes the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)

	if _, err := bw.Write(indexMagic[:]); err != nil {
		return 0, err
	}
	written := int64(len(indexMagic))
	header := []uint64{ix.shape.n, ix.shape.m, ix.shape.wsum, uint64(len(ix.landmarks))}
	for _, h := range header {
		if err := binary.Write(out, binary.LittleEndian, h); err != nil {
			return written, err
		}
		written += 8
	}
	if err := binary.Write(out, binary.LittleEndian, ix.landmarks); err != nil {
		return written, err
	}
	written += int64(4 * len(ix.landmarks))
	for i := range ix.landmarks {
		if err := binary.Write(out, binary.LittleEndian, ix.fwd[i]); err != nil {
			return written, err
		}
		if err := binary.Write(out, binary.LittleEndian, ix.bwd[i]); err != nil {
			return written, err
		}
		written += int64(8 * len(ix.fwd[i]))
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return written, err
	}
	written += 4
	return written, bw.Flush()
}

// Read deserializes an index previously written with WriteTo and binds it
// to g, verifying the stored graph fingerprint and checksum.
func Read(r io.Reader, g *graph.Graph) (*Index, error) {
	if err := fault.Hit(fault.IndexLoad); err != nil {
		return nil, fmt.Errorf("landmark: load: %w", err)
	}
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIndexFormat, err)
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrIndexFormat)
	}
	crc := crc32.NewIEEE()
	in := io.TeeReader(br, crc)

	var n, m, wsum, count uint64
	for _, p := range []*uint64{&n, &m, &wsum, &count} {
		if err := binary.Read(in, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: truncated header", ErrIndexFormat)
		}
	}
	sh := shapeOf(g)
	if (shape{n, m, wsum}) != sh {
		return nil, fmt.Errorf("%w: index fingerprint n=%d m=%d wsum=%d, graph has n=%d m=%d wsum=%d",
			ErrIndexMismatch, n, m, wsum, sh.n, sh.m, sh.wsum)
	}
	const maxLandmarks = 1 << 16
	if count == 0 || count > maxLandmarks {
		return nil, fmt.Errorf("%w: implausible landmark count %d", ErrIndexFormat, count)
	}
	ix := &Index{
		g:         g,
		shape:     sh,
		landmarks: make([]graph.NodeID, count),
		fwd:       make([][]int32, count),
		bwd:       make([][]int32, count),
	}
	if err := binary.Read(in, binary.LittleEndian, ix.landmarks); err != nil {
		return nil, fmt.Errorf("%w: truncated landmark ids", ErrIndexFormat)
	}
	for _, w := range ix.landmarks {
		if w < 0 || uint64(w) >= n {
			return nil, fmt.Errorf("%w: landmark id %d out of range", ErrIndexFormat, w)
		}
	}
	for i := range ix.landmarks {
		ix.fwd[i] = make([]int32, n)
		ix.bwd[i] = make([]int32, n)
		if err := binary.Read(in, binary.LittleEndian, ix.fwd[i]); err != nil {
			return nil, fmt.Errorf("%w: truncated fwd table %d", ErrIndexFormat, i)
		}
		if err := binary.Read(in, binary.LittleEndian, ix.bwd[i]); err != nil {
			return nil, fmt.Errorf("%w: truncated bwd table %d", ErrIndexFormat, i)
		}
	}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrIndexFormat)
	}
	if got != want {
		return nil, ErrIndexChecksum
	}
	ix.fp = contentFingerprint(sh, ix.landmarks)
	return ix, nil
}
