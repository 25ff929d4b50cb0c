package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"kpj/internal/fault"
	"kpj/internal/graph"
)

func testDelta(i int) *graph.Delta {
	return &graph.Delta{SetWeights: []graph.EdgeUpdate{{U: graph.NodeID(i), V: graph.NodeID(i + 1), W: graph.Weight(i + 1)}}}
}

func testRecord(epoch uint64) Record {
	return Record{
		Epoch:       epoch,
		Fingerprint: epoch * 0x9e3779b97f4a7c15,
		Nodes:       36,
		Edges:       120 + int(epoch),
		Delta:       testDelta(int(epoch)),
	}
}

func mustOpen(t *testing.T, dir string) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec
}

func sameRecords(t *testing.T, got, want []Record, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].Epoch != want[i].Epoch || got[i].Fingerprint != want[i].Fingerprint ||
			got[i].Nodes != want[i].Nodes || got[i].Edges != want[i].Edges {
			t.Fatalf("%s: record %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
		if got[i].Delta == nil || len(got[i].Delta.SetWeights) != len(want[i].Delta.SetWeights) {
			t.Fatalf("%s: record %d delta mismatch", ctx, i)
		}
	}
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir)
	if rec.CheckpointPath != "" || len(rec.Records) != 0 || rec.LastEpoch() != 0 {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}
	var want []Record
	for e := uint64(1); e <= 5; e++ {
		r := testRecord(e)
		if err := l.Append(r); err != nil {
			t.Fatalf("append %d: %v", e, err)
		}
		want = append(want, r)
	}
	if l.LastEpoch() != 5 {
		t.Fatalf("LastEpoch = %d", l.LastEpoch())
	}
	l.Close()

	_, rec2 := mustOpen(t, dir)
	sameRecords(t, rec2.Records, want, "reopen")
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("clean log reports %d truncated bytes", rec2.TruncatedBytes)
	}
}

func TestAppendEpochContract(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir())
	if err := l.Append(testRecord(2)); err == nil {
		t.Fatal("append epoch 2 onto empty log succeeded")
	}
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(1)); err == nil {
		t.Fatal("duplicate epoch append succeeded")
	}
	if err := l.Append(testRecord(3)); err == nil {
		t.Fatal("epoch-gap append succeeded")
	}
}

// TestTornTailTruncated simulates a kill -9 mid-write: garbage appended
// after the last complete frame must be dropped, and the valid prefix
// must survive both the recovery pass and the segment rewrite.
func TestTornTailTruncated(t *testing.T) {
	for _, tail := range [][]byte{
		{0x01},                               // short frame header
		{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, // absurd length
		{0x04, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'a', 'b'}, // truncated payload
		bytes.Repeat([]byte{0x41}, 64),                    // plain garbage
	} {
		t.Run(fmt.Sprintf("tail=%x", tail[:min(4, len(tail))]), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir)
			want := []Record{testRecord(1), testRecord(2)}
			for _, r := range want {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			seg := filepath.Join(dir, segmentName(0))
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			_, rec := mustOpen(t, dir)
			sameRecords(t, rec.Records, want, "torn tail")
			if rec.TruncatedBytes != int64(len(tail)) {
				t.Fatalf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, len(tail))
			}
		})
	}
}

// TestCorruptTailBitFlip: a bit flip inside the last record's payload
// fails its CRC; the record and everything after it are dropped, the
// prefix survives.
func TestCorruptTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	records := []Record{testRecord(1), testRecord(2), testRecord(3)}
	for _, r := range records {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seg := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the last frame and flip a payload bit.
	off := headerSize
	lastOff := off
	for off < len(data) {
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		lastOff = off
		off += frameHeader + length
	}
	data[lastOff+frameHeader+2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir)
	sameRecords(t, rec.Records, records[:2], "bit flip")
	if rec.TruncatedBytes == 0 {
		t.Fatal("bit flip reported no truncated bytes")
	}
}

// TestEpochGapTreatedAsCorruption: a record whose epoch does not follow
// its predecessor ends the valid prefix even if its CRC is fine.
func TestEpochGapTreatedAsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a frame for epoch 5 (valid CRC, wrong epoch).
	frame, err := encodeFrame(&Record{Epoch: 5, Delta: testDelta(5)})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	seg := filepath.Join(dir, segmentName(0))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, rec := mustOpen(t, dir)
	if len(rec.Records) != 1 || rec.Records[0].Epoch != 1 {
		t.Fatalf("recovered %d records (want just epoch 1): %+v", len(rec.Records), rec.Records)
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	for e := uint64(1); e <= 4; e++ {
		if err := l.Append(testRecord(e)); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := []byte("snapshot-at-epoch-4")
	if err := l.Checkpoint(4, func(w io.Writer) error {
		_, err := w.Write(snapshot)
		return err
	}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Records after the checkpoint extend the new segment.
	for e := uint64(5); e <= 6; e++ {
		if err := l.Append(testRecord(e)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	_, rec := mustOpen(t, dir)
	if rec.CheckpointEpoch != 4 {
		t.Fatalf("CheckpointEpoch = %d", rec.CheckpointEpoch)
	}
	got, err := os.ReadFile(rec.CheckpointPath)
	if err != nil || !bytes.Equal(got, snapshot) {
		t.Fatalf("checkpoint payload %q err %v", got, err)
	}
	sameRecords(t, rec.Records, []Record{testRecord(5), testRecord(6)}, "post-checkpoint")
	if rec.LastEpoch() != 6 {
		t.Fatalf("LastEpoch = %d", rec.LastEpoch())
	}
	// The pre-checkpoint segment and any older checkpoints are gone.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != checkpointName(4) && e.Name() != segmentName(4) {
			t.Fatalf("stale file survived checkpoint GC: %s", e.Name())
		}
	}
}

// TestCheckpointFailureKeepsChain: a snapshot writer error must leave
// the previous recovery chain fully intact.
func TestCheckpointFailureKeepsChain(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	for e := uint64(1); e <= 3; e++ {
		if err := l.Append(testRecord(e)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("snapshot writer failed")
	if err := l.Checkpoint(3, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("checkpoint error = %v, want wrapped %v", err, boom)
	}
	// Appends continue on the original chain.
	if err := l.Append(testRecord(4)); err != nil {
		t.Fatalf("append after failed checkpoint: %v", err)
	}
	l.Close()
	_, rec := mustOpen(t, dir)
	if rec.CheckpointPath != "" || len(rec.Records) != 4 {
		t.Fatalf("recovery after failed checkpoint: ckpt=%q records=%d", rec.CheckpointPath, len(rec.Records))
	}
}

// TestCheckpointAheadOfLog: snapshot-driven transitions (resync, index
// reload) checkpoint at an epoch ahead of the last logged record.
func TestCheckpointAheadOfLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(9, func(w io.Writer) error {
		_, err := w.Write([]byte("resynced"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(10)); err != nil {
		t.Fatalf("append after jump: %v", err)
	}
	l.Close()
	_, rec := mustOpen(t, dir)
	if rec.CheckpointEpoch != 9 || len(rec.Records) != 1 || rec.Records[0].Epoch != 10 {
		t.Fatalf("recovery after epoch jump: %+v", rec)
	}
}

// TestCheckpointAtBaseEpochReplacesIt: a second checkpoint at the
// epoch of the current one (a snapshot resync that replaces a diverged
// state at the same epoch) must replace the first, not garbage-collect
// the file it has just written.
func TestCheckpointAtBaseEpochReplacesIt(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	for i, payload := range []string{"diverged", "fleet"} {
		if err := l.Checkpoint(3, func(w io.Writer) error {
			_, err := w.Write([]byte(payload))
			return err
		}); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	if err := l.Append(testRecord(4)); err != nil {
		t.Fatalf("append after the second checkpoint: %v", err)
	}
	l.Close()
	_, rec := mustOpen(t, dir)
	if rec.CheckpointEpoch != 3 || rec.CheckpointPath == "" || len(rec.Records) != 1 {
		t.Fatalf("recovery after equal-epoch checkpoint: %+v", rec)
	}
	if got, err := os.ReadFile(rec.CheckpointPath); err != nil || string(got) != "fleet" {
		t.Fatalf("checkpoint payload %q err %v, want the second one", got, err)
	}
}

func TestTmpFilesCleanedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Simulate a crash mid-checkpoint: a .tmp that never got renamed.
	tmp := filepath.Join(dir, checkpointName(7)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, dir)
	if rec.CheckpointPath != "" || len(rec.Records) != 1 {
		t.Fatalf("tmp checkpoint leaked into recovery: %+v", rec)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp file survived Open: %v", err)
	}
}

func TestFaultPoints(t *testing.T) {
	t.Run("append", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir)
		fault.Install(fault.New().Add(fault.Rule{Point: fault.WALAppend}))
		defer fault.Install(nil)
		if err := l.Append(testRecord(1)); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("append under fault = %v", err)
		}
		fault.Install(nil)
		// The failed append left no trace: the same epoch appends cleanly.
		if err := l.Append(testRecord(1)); err != nil {
			t.Fatal(err)
		}
		l.Close()
		_, rec := mustOpen(t, dir)
		if len(rec.Records) != 1 {
			t.Fatalf("recovered %d records", len(rec.Records))
		}
	})
	t.Run("fsync", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir)
		fault.Install(fault.New().Add(fault.Rule{Point: fault.WALFsync}))
		defer fault.Install(nil)
		if err := l.Append(testRecord(1)); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("append under fsync fault = %v", err)
		}
		fault.Install(nil)
		// The torn frame was rolled back; the log is still appendable and
		// recovery sees only what later succeeded.
		if err := l.Append(testRecord(1)); err != nil {
			t.Fatalf("append after rollback: %v", err)
		}
		l.Close()
		_, rec := mustOpen(t, dir)
		sameRecords(t, rec.Records, []Record{testRecord(1)}, "post-rollback")
	})
	t.Run("replay", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir)
		if err := l.Append(testRecord(1)); err != nil {
			t.Fatal(err)
		}
		l.Close()
		fault.Install(fault.New().Add(fault.Rule{Point: fault.WALReplay}))
		defer fault.Install(nil)
		if _, _, err := Open(dir); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("Open under replay fault = %v", err)
		}
	})
}

// TestOpenIdempotent: recovery must not change what a second recovery
// sees — Open twice in a row yields identical records.
func TestOpenIdempotent(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	for e := uint64(1); e <= 3; e++ {
		if err := l.Append(testRecord(e)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Torn tail on top.
	seg := filepath.Join(dir, segmentName(0))
	f, _ := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{1, 2, 3})
	f.Close()

	l1, rec1 := mustOpen(t, dir)
	l1.Close()
	_, rec2 := mustOpen(t, dir)
	sameRecords(t, rec2.Records, rec1.Records, "second open")
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("second open still sees %d torn bytes", rec2.TruncatedBytes)
	}
}

func TestClosedLogRefuses(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir())
	l.Close()
	if err := l.Append(testRecord(1)); !errors.Is(err, errClosed) {
		t.Fatalf("append on closed log = %v", err)
	}
	if err := l.Checkpoint(1, func(io.Writer) error { return nil }); !errors.Is(err, errClosed) {
		t.Fatalf("checkpoint on closed log = %v", err)
	}
}
