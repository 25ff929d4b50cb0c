package server

import (
	"errors"
	"os"
	"strings"
	"sync"

	"kpj/internal/wal"
)

// errDisk is the failure diskFS injects.
var errDisk = errors.New("injected disk failure")

// diskFS is the operating system's file system under a WAL, whose next
// write or fsync of a chosen file fails once: the real failure the
// durability tests drive Append and Checkpoint through.
type diskFS struct {
	mu         sync.Mutex
	op, suffix string
}

// failOnce makes the next op ("write" or "sync") on a file whose name
// ends in suffix fail.
func (d *diskFS) failOnce(op, suffix string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.op, d.suffix = op, suffix
}

func (d *diskFS) check(op, name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if op != d.op || !strings.HasSuffix(name, d.suffix) {
		return nil
	}
	d.op = ""
	return errDisk
}

func (d *diskFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }
func (d *diskFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (d *diskFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (d *diskFS) Remove(name string) error             { return os.Remove(name) }

func (d *diskFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

func (d *diskFS) OpenFile(name string, flag int) (wal.File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return &diskFile{File: f, fs: d, name: name}, nil
}

func (d *diskFS) SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

type diskFile struct {
	*os.File
	fs   *diskFS
	name string
}

func (f *diskFile) Write(p []byte) (int, error) {
	if err := f.fs.check("write", f.name); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *diskFile) Sync() error {
	if err := f.fs.check("sync", f.name); err != nil {
		return err
	}
	return f.File.Sync()
}
