package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// logState is what a recovery serves: the newest durable epoch and a
// text that names every operation behind it (a checkpoint's payload,
// then one "|epoch:fingerprint" per record).
type logState struct {
	epoch uint64
	text  string
}

func recordText(r Record) string { return fmt.Sprintf("|%d:%x", r.Epoch, r.Fingerprint) }

// recoverState opens files as a restarted process would and returns the
// state it recovers; the recovered log must accept the next epoch.
func recoverState(t *testing.T, dir string, files map[string][]byte) logState {
	t.Helper()
	fsys := memFSOf(files)
	l, rec, err := OpenFS(fsys, dir)
	if err != nil {
		t.Fatalf("Open after a crash: %v", err)
	}
	defer l.Close()
	var s logState
	if rec.CheckpointPath != "" {
		payload, err := fsys.ReadFile(rec.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		s.text = string(payload)
	}
	for _, r := range rec.Records {
		s.text += recordText(r)
	}
	s.epoch = rec.LastEpoch()
	if err := l.Append(testRecord(s.epoch + 1)); err != nil {
		t.Fatalf("recovered log refuses epoch %d: %v", s.epoch+1, err)
	}
	return s
}

// TestCrashStatesRecoverAcknowledgedPrefix crashes a scripted history at
// every file-system operation boundary: appends, a failed append and its
// retry, checkpoints every 4 epochs, a second checkpoint at the epoch of
// the current one (a resync that replaces a diverged state), a
// checkpoint ahead of the last record (a resync or reload that jumps),
// and a restart. Open, run on every state a power cut can leave, must
// recover exactly the last acknowledged state or the one in flight:
// every acknowledged operation and nothing past the last attempted one.
func TestCrashStatesRecoverAcknowledgedPrefix(t *testing.T) {
	const dir, every = "/wal", 4
	fsys := newMemFS()
	var acked logState
	var inflight *logState
	boundaries, states := 0, 0
	fsys.before = func(op, name string) {
		boundaries++
		for _, files := range fsys.crashStates() {
			states++
			got := recoverState(t, dir, files)
			if got != acked && (inflight == nil || got != *inflight) {
				t.Fatalf("crash before %s %s recovers %+v; acknowledged %+v, in flight %+v",
					op, filepath.Base(name), got, acked, inflight)
			}
		}
	}
	attempt := func(next logState, do func() error) error {
		inflight = &next
		err := do()
		inflight = nil
		if err == nil {
			acked = next
		}
		return err
	}

	var l *Log
	open := func() {
		t.Helper()
		var err error
		var rec *Recovery
		if l, rec, err = OpenFS(fsys, dir); err != nil {
			t.Fatal(err)
		}
		if rec.LastEpoch() != acked.epoch {
			t.Fatalf("restart recovers epoch %d, acknowledged %d", rec.LastEpoch(), acked.epoch)
		}
	}
	checkpoint := func(epoch uint64, text string) {
		t.Helper()
		if err := attempt(logState{epoch, text}, func() error {
			return l.Checkpoint(epoch, func(w io.Writer) error {
				_, err := io.WriteString(w, text)
				return err
			})
		}); err != nil {
			t.Fatalf("checkpoint %d: %v", epoch, err)
		}
	}
	appendRec := func(r Record) error {
		return attempt(logState{r.Epoch, acked.text + recordText(r)}, func() error { return l.Append(r) })
	}
	appendTo := func(last uint64) {
		t.Helper()
		for e := acked.epoch + 1; e <= last; e++ {
			if err := appendRec(testRecord(e)); err != nil {
				t.Fatalf("append %d: %v", e, err)
			}
			if e%every == 0 {
				checkpoint(e, acked.text)
			}
		}
	}

	open()
	appendTo(5)
	// A failed fsync: the update is refused, its retry with another
	// delta is acknowledged.
	failed := testRecord(6)
	failed.Fingerprint ^= 1
	fsys.failOnce("sync", ".log")
	if err := appendRec(failed); !errors.Is(err, errDisk) {
		t.Fatalf("append under a failed fsync = %v", err)
	}
	appendTo(12)
	checkpoint(12, "resync@12") // replaces the current checkpoint at its epoch
	appendTo(13)
	checkpoint(15, "jump@15") // ahead of the last record
	appendTo(17)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	open()
	appendTo(18)
	if boundaries < 100 || states < boundaries {
		t.Fatalf("only %d boundaries and %d crash states checked", boundaries, states)
	}
	t.Logf("%d operation boundaries, %d crash states recovered", boundaries, states)
}

// TestCheckpointDirSyncFailure: a directory sync that fails inside
// Checkpoint fails it. The new checkpoint is taken out again, appends
// refuse until a Checkpoint succeeds, and a restart recovers the
// previous chain.
func TestCheckpointDirSyncFailure(t *testing.T) {
	const dir = "/wal"
	fsys := newMemFS()
	l, _ := mustOpenFS(t, fsys, dir)
	for e := uint64(1); e <= 2; e++ {
		if err := l.Append(testRecord(e)); err != nil {
			t.Fatal(err)
		}
	}
	fsys.failOnce("syncdir", dir)
	if err := l.Checkpoint(5, func(w io.Writer) error { return nil }); !errors.Is(err, errDisk) {
		t.Fatalf("checkpoint under a failed directory sync = %v", err)
	}
	if err := l.Append(testRecord(3)); !errors.Is(err, errBroken) {
		t.Fatalf("append after a failed directory sync = %v, want errBroken", err)
	}
	l.Close()
	_, rec := mustOpenFS(t, fsys, dir)
	if rec.CheckpointPath != "" || rec.LastEpoch() != 2 {
		t.Fatalf("recovery after a failed checkpoint: %+v", rec)
	}
}

// TestCheckpointRotationFailureCommits: once the checkpoint is durable a
// failed segment rotation does not fail Checkpoint (a caller told
// otherwise would keep serving the old epoch that a restart no longer
// recovers). Appends refuse until the next Checkpoint, and a restart
// recovers the checkpoint.
func TestCheckpointRotationFailureCommits(t *testing.T) {
	const dir = "/wal"
	fsys := newMemFS()
	l, _ := mustOpenFS(t, fsys, dir)
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	fsys.failOnce("write", ".log.tmp")
	if err := l.Checkpoint(7, func(w io.Writer) error { _, err := w.Write([]byte("s7")); return err }); err != nil {
		t.Fatalf("checkpoint with a failed rotation = %v, want nil", err)
	}
	if err := l.Append(testRecord(8)); !errors.Is(err, errBroken) {
		t.Fatalf("append after a failed rotation = %v, want errBroken", err)
	}
	// The next Checkpoint rotates and clears the broken state.
	if err := l.Checkpoint(7, func(w io.Writer) error { _, err := w.Write([]byte("s7")); return err }); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(8)); err != nil {
		t.Fatalf("append after a clean checkpoint: %v", err)
	}
	fsys.failOnce("open", ".log.tmp")
	if err := l.Checkpoint(9, func(w io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, rec := mustOpenFS(t, fsys, dir)
	if rec.CheckpointEpoch != 9 || len(rec.Records) != 0 {
		t.Fatalf("recovery after a failed rotation: %+v", rec)
	}
}

// TestCheckpointCommitFailures: a checkpoint that fails before its
// rename is not committed. It leaves no temp file, appends continue on
// the previous chain, and a restart recovers that chain.
func TestCheckpointCommitFailures(t *testing.T) {
	const dir = "/wal"
	for _, op := range []string{"open", "write", "sync", "close", "rename"} {
		t.Run(op, func(t *testing.T) {
			fsys := newMemFS()
			l, _ := mustOpenFS(t, fsys, dir)
			if err := l.Append(testRecord(1)); err != nil {
				t.Fatal(err)
			}
			fsys.failOnce(op, ".ckpt.tmp")
			err := l.Checkpoint(1, func(w io.Writer) error { _, err := w.Write([]byte("s1")); return err })
			if !errors.Is(err, errDisk) {
				t.Fatalf("checkpoint under a failed %s = %v", op, err)
			}
			for name := range fsys.live {
				if filepath.Ext(name) == ".tmp" || filepath.Ext(name) == ".ckpt" {
					t.Fatalf("failed checkpoint left %s", name)
				}
			}
			if err := l.Append(testRecord(2)); err != nil {
				t.Fatalf("append after a failed checkpoint: %v", err)
			}
			l.Close()
			_, rec := mustOpenFS(t, fsys, dir)
			if rec.CheckpointPath != "" || rec.LastEpoch() != 2 {
				t.Fatalf("recovery after a failed checkpoint: %+v", rec)
			}
		})
	}
}

// TestRollbackFailureBreaksLog: when a failed append cannot be truncated
// away the Log refuses appends until a Checkpoint re-anchors it.
func TestRollbackFailureBreaksLog(t *testing.T) {
	fsys := newMemFS()
	l, _ := mustOpenFS(t, fsys, "/wal")
	fsys.failOnce("sync", ".log")
	if err := l.Append(testRecord(1)); !errors.Is(err, errDisk) {
		t.Fatal(err)
	}
	// The failure schedule is spent; fail the rollback of the next one.
	fsys.fail = func(op, name string) error {
		if op == "write" || op == "truncate" {
			return errDisk
		}
		return nil
	}
	if err := l.Append(testRecord(1)); !errors.Is(err, errDisk) {
		t.Fatal(err)
	}
	fsys.fail = nil
	if err := l.Append(testRecord(1)); !errors.Is(err, errBroken) {
		t.Fatalf("append after a failed rollback = %v, want errBroken", err)
	}
	if err := l.Checkpoint(1, func(w io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(2)); err != nil {
		t.Fatalf("append after re-anchoring: %v", err)
	}
}

// TestOpenFailures: Open fails, rather than serving a partial chain,
// when the directory cannot be made, listed or its segment rewritten.
func TestOpenFailures(t *testing.T) {
	for _, c := range []struct{ op, suffix string }{
		{"mkdir", "wal"}, {"readdir", "wal"}, {"open", ".log.tmp"}, {"write", ".log.tmp"}, {"syncdir", "wal"}, {"open", ".log"},
	} {
		fsys := newMemFS()
		fsys.failOnce(c.op, c.suffix)
		if _, _, err := OpenFS(fsys, "/wal"); !errors.Is(err, errDisk) {
			t.Errorf("Open under a failed %s of *%s = %v", c.op, c.suffix, err)
		}
	}
	// The operating system's file system fails for real.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(filepath.Join(file, "wal")); err == nil {
		t.Error("Open under a regular file succeeded")
	}
	if _, err := (osFS{}).OpenFile(filepath.Join(file, "x"), os.O_RDONLY); err == nil {
		t.Error("OpenFile under a regular file succeeded")
	}
	if err := (osFS{}).SyncDir(filepath.Join(file, "x")); err == nil {
		t.Error("SyncDir of a missing directory succeeded")
	}
}
