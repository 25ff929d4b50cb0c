// Package wal is the durability layer under the live-update path: an
// append-only, CRC32-framed write-ahead log of accepted deltas plus
// periodic checkpoints, so a kpjserver that crashes or restarts recovers
// the exact epoch chain it had applied in memory instead of silently
// rewinding to its on-disk seed index.
//
// On-disk layout, all inside one directory:
//
//	checkpoint-<epoch:016x>.ckpt   snapshot of the serving state at <epoch>
//	wal-<epoch:016x>.log           the active segment: records for epochs
//	                               <epoch>+1, <epoch>+2, ... in order
//	*.tmp                          in-progress writes; deleted on Open
//
// A segment starts with a 16-byte header (magic "kpjwal01" + base epoch,
// little endian) and continues with framed records:
//
//	u32 payload length | u32 CRC32-IEEE(payload) | payload (JSON Record)
//
// Durability protocol: Append writes the frame and fsyncs before
// returning — the caller publishes the new epoch only after Append
// succeeds, so every epoch a client ever observed is recoverable.
// Checkpoint writes the snapshot to a temp file, fsyncs, renames it into
// place, fsyncs the directory, rotates a fresh segment based at the
// checkpoint epoch, and only then garbage-collects older checkpoints and
// segments — at every instant the directory holds at least one complete
// recovery chain.
//
// Open is the recovery entry point: it picks the newest checkpoint,
// replays the log records behind it, detects a torn or corrupt tail
// (short frame, CRC mismatch, malformed payload, or an epoch gap) and
// truncates it, then rewrites the surviving suffix as the canonical
// active segment. Opening a directory twice in a row yields identical
// records: recovery is idempotent.
//
// The wal.append, wal.fsync and wal.replay fault points let the chaos
// and crash-recovery suites inject failures at the exact moments real
// deployments lose power.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"kpj/internal/fault"
	"kpj/internal/graph"
)

// Record is one durably logged live update: the delta that was applied
// and the identity of the epoch it produced. Fingerprint is the landmark
// index content fingerprint of the post-apply generation (0 when the
// server runs unindexed); Nodes and Edges pin the post-apply graph shape
// as a cheap secondary integrity check during replay.
type Record struct {
	Epoch       uint64       `json:"epoch"`
	Fingerprint uint64       `json:"fingerprint"`
	Nodes       int          `json:"nodes"`
	Edges       int          `json:"edges"`
	Delta       *graph.Delta `json:"delta"`
}

// Recovery describes what Open found on disk: the newest complete
// checkpoint (if any) and the validated record suffix behind it, in
// epoch order. TruncatedBytes counts tail bytes dropped as torn or
// corrupt (0 for a cleanly closed log).
type Recovery struct {
	CheckpointPath  string
	CheckpointEpoch uint64
	Records         []Record
	TruncatedBytes  int64
}

// LastEpoch is the newest durable epoch: the final record's, or the
// checkpoint's when no records follow it.
func (r *Recovery) LastEpoch() uint64 {
	if n := len(r.Records); n > 0 {
		return r.Records[n-1].Epoch
	}
	return r.CheckpointEpoch
}

// Log is an open write-ahead log directory. Append and Checkpoint are
// serialized by an internal mutex; a Log is safe for concurrent use,
// though the server additionally serializes them under its update mutex.
type Log struct {
	dir string

	mu     sync.Mutex
	f      *os.File
	path   string // active segment path
	base   uint64 // active segment's base epoch
	last   uint64 // last durable epoch (== base when the segment is empty)
	size   int64  // current segment size, for torn-write rollback
	broken error  // sticky: set when the file state is no longer trusted
	closed bool
}

const (
	segmentMagic = "kpjwal01"
	headerSize   = 16
	frameHeader  = 8
	// maxRecordBytes bounds one record frame; anything larger is treated
	// as corruption rather than an allocation request.
	maxRecordBytes = 64 << 20
)

var (
	// ErrClosed is returned by operations on a closed Log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrBroken is wrapped by operations after an append failed in a way
	// that left the segment state untrusted; the caller should crash and
	// recover rather than continue appending.
	ErrBroken = errors.New("wal: log is broken")
)

func checkpointName(epoch uint64) string { return fmt.Sprintf("checkpoint-%016x.ckpt", epoch) }
func segmentName(epoch uint64) string    { return fmt.Sprintf("wal-%016x.log", epoch) }

// parseEpoch extracts the epoch from a checkpoint or segment file name.
func parseEpoch(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hexa := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hexa) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexa, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Open recovers the log directory (creating it if needed) and returns
// the Log ready for appends plus the Recovery the caller must replay.
// The active segment is rewritten to exactly the surviving records, so
// torn tails and superseded segments never outlive an Open.
func Open(dir string) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}

	var ckptEpochs, segEpochs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// An in-progress write that never committed; its rename never
			// happened, so it is invisible to recovery. Delete it.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if ep, ok := parseEpoch(name, "checkpoint-", ".ckpt"); ok {
			ckptEpochs = append(ckptEpochs, ep)
		}
		if ep, ok := parseEpoch(name, "wal-", ".log"); ok {
			segEpochs = append(segEpochs, ep)
		}
	}
	sort.Slice(ckptEpochs, func(i, j int) bool { return ckptEpochs[i] < ckptEpochs[j] })
	sort.Slice(segEpochs, func(i, j int) bool { return segEpochs[i] < segEpochs[j] })

	rec := &Recovery{}
	if n := len(ckptEpochs); n > 0 {
		rec.CheckpointEpoch = ckptEpochs[n-1]
		rec.CheckpointPath = filepath.Join(dir, checkpointName(rec.CheckpointEpoch))
	}

	// Replay the newest segment that can extend the checkpoint: the one
	// with the largest base <= the checkpoint epoch (records at or below
	// the checkpoint are already folded into the snapshot and skipped).
	// Without a checkpoint only a base-0 segment is connected to the seed
	// state. Segments based above the newest checkpoint cannot exist
	// under the checkpoint protocol; if one appears anyway (manual
	// surgery), it is unreachable from the recovery chain and is deleted
	// below.
	var replayBase uint64
	replayPath := ""
	for _, ep := range segEpochs {
		usable := ep <= rec.CheckpointEpoch
		if rec.CheckpointPath == "" {
			usable = ep == 0
		}
		if usable {
			replayBase, replayPath = ep, filepath.Join(dir, segmentName(ep))
		}
	}
	if replayPath != "" {
		records, torn, err := replaySegment(replayPath, replayBase)
		if err != nil {
			return nil, nil, err
		}
		rec.TruncatedBytes = torn
		// Drop records the checkpoint already covers.
		for _, r := range records {
			if r.Epoch > rec.CheckpointEpoch {
				rec.Records = append(rec.Records, r)
			}
		}
	}

	// Rewrite the canonical active segment: base = checkpoint epoch,
	// contents = exactly the surviving suffix. This one code path handles
	// torn-tail truncation, segment rebasing after a checkpoint whose
	// rotation was interrupted, and first-time creation alike.
	l := &Log{dir: dir, base: rec.CheckpointEpoch, last: rec.LastEpoch()}
	if err := l.rewriteSegment(rec.Records); err != nil {
		return nil, nil, err
	}
	// GC everything the canonical chain no longer references.
	for _, ep := range ckptEpochs {
		if ep != rec.CheckpointEpoch {
			_ = os.Remove(filepath.Join(dir, checkpointName(ep)))
		}
	}
	for _, ep := range segEpochs {
		if ep != l.base {
			_ = os.Remove(filepath.Join(dir, segmentName(ep)))
		}
	}
	return l, rec, nil
}

// replaySegment validates path's header and decodes records base+1,
// base+2, ... until the first torn or corrupt frame, returning the valid
// prefix and how many tail bytes it abandons. Every decoded record polls
// the wal.replay fault point, so recovery failures are injectable.
func replaySegment(path string, base uint64) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	if len(data) < headerSize || string(data[:8]) != segmentMagic ||
		binary.LittleEndian.Uint64(data[8:16]) != base {
		// A segment without a valid header carries nothing recoverable;
		// treat the whole file as a torn write.
		return nil, int64(len(data)), nil
	}
	var records []Record
	off := headerSize
	next := base + 1
	for {
		rest := data[off:]
		if len(rest) < frameHeader {
			break
		}
		length := binary.LittleEndian.Uint32(rest[:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length == 0 || length > maxRecordBytes || len(rest) < frameHeader+int(length) {
			break
		}
		payload := rest[frameHeader : frameHeader+int(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil || r.Epoch != next || r.Delta == nil {
			break
		}
		if err := fault.Hit(fault.WALReplay); err != nil {
			return nil, 0, fmt.Errorf("wal: replay %s epoch %d: %w", path, r.Epoch, err)
		}
		records = append(records, r)
		off += frameHeader + int(length)
		next++
	}
	return records, int64(len(data) - off), nil
}

// rewriteSegment writes the active segment from scratch via temp file +
// rename, leaving l.f positioned for appends. Caller holds no lock yet
// (Open) or the mutex (never — only Open and checkpoint rotation call it,
// both while the Log is not shared).
func (l *Log) rewriteSegment(records []Record) error {
	final := filepath.Join(l.dir, segmentName(l.base))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rewrite segment: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], segmentMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], l.base)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: rewrite segment: %w", err)
	}
	size := int64(headerSize)
	for i := range records {
		frame, err := encodeFrame(&records[i])
		if err != nil {
			f.Close()
			return err
		}
		if _, err := f.Write(frame); err != nil {
			f.Close()
			return fmt.Errorf("wal: rewrite segment: %w", err)
		}
		size += int64(len(frame))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: rewrite segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: rewrite segment: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: rewrite segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	af, err := os.OpenFile(final, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen segment: %w", err)
	}
	if l.f != nil {
		_ = l.f.Close()
	}
	l.f, l.path, l.size = af, final, size
	return nil
}

func encodeFrame(r *Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("wal: encode record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("wal: record for epoch %d exceeds %d bytes", r.Epoch, maxRecordBytes)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// Append durably logs rec: frame, write, fsync. It returns only after
// the record is on stable storage — the caller must not publish the
// epoch before Append returns nil. rec.Epoch must be exactly one past
// the last durable epoch. On a failed write the segment is rolled back
// to its pre-append length; if even that fails the Log turns sticky
// ErrBroken, refusing further appends until the process recovers.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	if rec.Epoch != l.last+1 {
		return fmt.Errorf("wal: append epoch %d does not follow durable epoch %d", rec.Epoch, l.last)
	}
	if err := fault.Hit(fault.WALAppend); err != nil {
		return fmt.Errorf("wal: append epoch %d: %w", rec.Epoch, err)
	}
	frame, err := encodeFrame(&rec)
	if err != nil {
		return err
	}
	if _, err := l.f.Write(frame); err != nil {
		l.rollback()
		return fmt.Errorf("wal: append epoch %d: %w", rec.Epoch, err)
	}
	if err := fault.Hit(fault.WALFsync); err != nil {
		l.rollback()
		return fmt.Errorf("wal: fsync epoch %d: %w", rec.Epoch, err)
	}
	if err := l.f.Sync(); err != nil {
		l.rollback()
		return fmt.Errorf("wal: fsync epoch %d: %w", rec.Epoch, err)
	}
	l.size += int64(len(frame))
	l.last = rec.Epoch
	return nil
}

// rollback truncates a half-written frame so the next Append starts from
// a clean tail; recovery would drop the torn frame anyway, this just
// keeps the running process consistent too. Called with the mutex held.
func (l *Log) rollback() {
	if err := l.f.Truncate(l.size); err != nil {
		l.broken = err
		return
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.broken = err
	}
}

// Checkpoint snapshots the state at epoch through write, commits it
// atomically, rotates a fresh segment based at epoch, and deletes the
// superseded checkpoint and segment. epoch must be at least the current
// base; epochs ahead of the last durable record are allowed — that is
// how snapshot-driven transitions (resync, index reload) re-anchor the
// chain. On any error the previous checkpoint and segment remain the
// recovery chain.
func (l *Log) Checkpoint(epoch uint64, write func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if epoch < l.last {
		return fmt.Errorf("wal: checkpoint epoch %d behind durable epoch %d", epoch, l.last)
	}
	final := filepath.Join(l.dir, checkpointName(epoch))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint snapshot: %w", err)
	}
	if ferr := fault.Hit(fault.WALFsync); ferr != nil {
		f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint fsync: %w", ferr)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}

	// The checkpoint is committed; everything from here is rotation and
	// GC, which recovery can redo if we crash mid-way.
	oldBase, oldPath := l.base, l.path
	l.base, l.last = epoch, epoch
	if err := l.rewriteSegment(nil); err != nil {
		// The new checkpoint stands; the stale segment stays until the
		// next successful Open or Checkpoint. Appends can no longer trust
		// the active file, so turn sticky.
		l.broken = err
		return err
	}
	if oldBase != epoch {
		_ = os.Remove(oldPath)
	}
	_ = os.Remove(filepath.Join(l.dir, checkpointName(oldBase)))
	l.broken = nil
	return nil
}

// LastEpoch reports the newest durable epoch (checkpoint or record).
func (l *Log) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Close releases the active segment handle. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f != nil {
		return l.f.Close()
	}
	return nil
}

// syncDir fsyncs a directory so renames within it are durable. On
// platforms where directories cannot be fsynced the error is ignored —
// the rename itself is still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		// Some filesystems refuse directory fsync; treat EINVAL-class
		// failures as best-effort rather than fatal.
		return nil
	}
	return nil
}
