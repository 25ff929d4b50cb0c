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
// Every file operation goes through an FS: Open uses the operating
// system's, OpenFS any other. The package's tests run it over an
// in-memory FS that fails any operation on demand and keeps durable
// state apart from what the process sees: a file holds what its last
// Sync covered, a rename or remove holds once the directory is synced.
// Crashing a scripted history at every operation boundary, Open must
// recover, from every state a power cut can leave, every acknowledged
// Append and Checkpoint and nothing past the one in flight.
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
	"syscall"

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

// FS is the file system a Log persists through. Names are full paths.
type FS interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]string, error)
	ReadFile(name string) ([]byte, error)
	// OpenFile opens name with os.OpenFile's flags.
	OpenFile(name string, flag int) (File, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	// SyncDir makes the renames and removes done in dir durable.
	SyncDir(dir string) error
}

// File is a file opened through an FS. A Log only ever appends to one.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

func (osFS) OpenFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// SyncDir fsyncs dir. Some file systems refuse directory fsync
// (ErrUnsupported, EINVAL); there the rename itself is still atomic, so
// that refusal is not an error.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if errors.Is(err, errors.ErrUnsupported) || errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}

// Log is an open write-ahead log directory. Append and Checkpoint are
// serialized by an internal mutex; a Log is safe for concurrent use,
// though the server additionally serializes them under its update mutex.
type Log struct {
	fs  FS
	dir string

	mu     sync.Mutex
	f      File
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
)

var (
	// errClosed is returned by operations on a closed Log.
	errClosed = errors.New("wal: log is closed")
	// errBroken is wrapped by appends once the files on disk no longer
	// match what the Log tracks (a failed rollback, segment rotation or
	// directory sync); a successful Checkpoint re-anchors the chain and
	// clears it.
	errBroken = errors.New("wal: log is broken")
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

// Open recovers the log directory (creating it if needed) on the
// operating system's file system; see OpenFS.
func Open(dir string) (*Log, *Recovery, error) { return OpenFS(osFS{}, dir) }

// OpenFS recovers the log directory dir of fsys (creating it if needed)
// and returns the Log ready for appends plus the Recovery the caller
// must replay. The active segment is rewritten to exactly the surviving
// records, so torn tails and superseded segments never outlive an open.
func OpenFS(fsys FS, dir string) (*Log, *Recovery, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}

	var ckptEpochs, segEpochs []uint64
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			// An in-progress write that never committed; its rename never
			// happened, so it is invisible to recovery. Delete it.
			_ = fsys.Remove(filepath.Join(dir, name))
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
		data, err := fsys.ReadFile(replayPath)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: replay %s: %w", replayPath, err)
		}
		records, torn := decodeSegment(data, replayBase)
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
	l := &Log{fs: fsys, dir: dir, base: rec.CheckpointEpoch, last: rec.LastEpoch()}
	if err := l.rewriteSegment(rec.Records); err != nil {
		return nil, nil, err
	}
	// GC everything the canonical chain no longer references.
	for _, ep := range ckptEpochs {
		if ep != rec.CheckpointEpoch {
			_ = fsys.Remove(filepath.Join(dir, checkpointName(ep)))
		}
	}
	for _, ep := range segEpochs {
		if ep != l.base {
			_ = fsys.Remove(filepath.Join(dir, segmentName(ep)))
		}
	}
	return l, rec, nil
}

// decodeSegment validates a segment's header and decodes records
// base+1, base+2, ... until the first torn or corrupt frame, returning
// the valid prefix and how many tail bytes it abandons.
func decodeSegment(data []byte, base uint64) ([]Record, int64) {
	if len(data) < headerSize || string(data[:8]) != segmentMagic ||
		binary.LittleEndian.Uint64(data[8:16]) != base {
		// A segment without a valid header carries nothing recoverable;
		// treat the whole file as a torn write.
		return nil, int64(len(data))
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
		if length == 0 || uint64(length) > uint64(len(rest)-frameHeader) {
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
		records = append(records, r)
		off += frameHeader + int(length)
		next++
	}
	return records, int64(len(data) - off)
}

// commit writes name atomically: write to a temp file, fsync, close,
// rename over name, fsync the directory. Before the rename an error
// removes the temp file and leaves name as it was. A failed directory
// sync leaves unknown which of the two names a power cut keeps, so it
// turns the Log broken. Called with the mutex held or before the Log is
// shared.
func (l *Log) commit(name string, write func(io.Writer) error) error {
	tmp := name + ".tmp"
	f, err := l.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.fs.Rename(tmp, name)
	}
	if err != nil {
		_ = l.fs.Remove(tmp) // best effort: Open deletes every *.tmp
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		l.broken = err
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

// rewriteSegment commits the active segment from scratch, header and
// records in one write, and reopens it for appends.
func (l *Log) rewriteSegment(records []Record) error {
	final := filepath.Join(l.dir, segmentName(l.base))
	buf := make([]byte, headerSize)
	copy(buf, segmentMagic)
	binary.LittleEndian.PutUint64(buf[8:], l.base)
	for i := range records {
		buf = append(buf, encodeFrame(&records[i])...)
	}
	if err := l.commit(final, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	}); err != nil {
		return fmt.Errorf("wal: rewrite segment: %w", err)
	}
	af, err := l.fs.OpenFile(final, os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return fmt.Errorf("wal: reopen segment: %w", err)
	}
	if l.f != nil {
		_ = l.f.Close()
	}
	l.f, l.path, l.size = af, final, int64(len(buf))
	return nil
}

// encodeFrame frames r. A Record holds only integers, strings and slices
// of them, which json.Marshal always encodes.
func encodeFrame(r *Record) []byte {
	payload, _ := json.Marshal(r)
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame
}

// Append durably logs rec: frame, write, fsync. It returns only after
// the record is on stable storage — the caller must not publish the
// epoch before Append returns nil. rec.Epoch must be exactly one past
// the last durable epoch. On a failed write or fsync the segment is
// truncated back to its pre-append length; if even that fails the Log
// turns sticky errBroken, refusing further appends until a Checkpoint
// succeeds or the process recovers.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if l.broken != nil {
		return fmt.Errorf("%w: %v", errBroken, l.broken)
	}
	if rec.Epoch != l.last+1 {
		return fmt.Errorf("wal: append epoch %d does not follow durable epoch %d", rec.Epoch, l.last)
	}
	frame := encodeFrame(&rec)
	if _, err := l.f.Write(frame); err != nil {
		l.rollback()
		return fmt.Errorf("wal: append epoch %d: %w", rec.Epoch, err)
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
// a clean tail (the segment is opened O_APPEND, so no seek is needed);
// recovery would drop the torn frame anyway, this just keeps the running
// process consistent too. Called with the mutex held.
func (l *Log) rollback() {
	if err := l.f.Truncate(l.size); err != nil {
		l.broken = err
	}
}

// Checkpoint snapshots the state at epoch through write, commits it
// atomically, rotates a fresh segment based at epoch, and deletes the
// superseded checkpoint and segment. epoch must be at least the last
// durable one; epochs ahead of it are allowed — that is how
// snapshot-driven transitions (resync, index reload) re-anchor the
// chain. An error means the checkpoint did not commit, and the previous
// checkpoint and segment remain the recovery chain. The one exception is
// a failed directory sync after the rename, which leaves unknown what a
// power cut keeps (at an equal epoch the new checkpoint has replaced the
// old one); the Log then refuses appends until a Checkpoint succeeds.
// Once the commit is durable Checkpoint returns nil even if the segment
// rotation behind it fails: the Log refuses appends until the next
// successful Checkpoint, and recovery redoes the rotation.
func (l *Log) Checkpoint(epoch uint64, write func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if epoch < l.last {
		return fmt.Errorf("wal: checkpoint epoch %d behind durable epoch %d", epoch, l.last)
	}
	final := filepath.Join(l.dir, checkpointName(epoch))
	if err := l.commit(final, write); err != nil {
		if epoch != l.base {
			// The chain still ends at l.base: take the new name out so
			// recovery cannot pick it should the rename have happened.
			_ = l.fs.Remove(final)
		}
		return fmt.Errorf("wal: checkpoint: %w", err)
	}

	// The checkpoint is committed; everything from here is rotation and
	// GC, which recovery can redo if we crash mid-way.
	oldBase, oldPath := l.base, l.path
	l.base, l.last = epoch, epoch
	if err := l.rewriteSegment(nil); err != nil {
		// The stale segment stays until the next successful Open or
		// Checkpoint, and appends can no longer trust the active file.
		l.broken = err
		return nil
	}
	if oldBase != epoch {
		// At an equal epoch both names are the ones just written.
		_ = l.fs.Remove(oldPath)
		_ = l.fs.Remove(filepath.Join(l.dir, checkpointName(oldBase)))
	}
	l.broken = nil
	return nil
}

// Close releases the active segment handle. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
