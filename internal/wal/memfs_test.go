package wal

import (
	"bytes"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// errDisk is the failure memFS injects.
var errDisk = errors.New("injected disk failure")

// memFS is an in-memory FS for one directory that keeps what a power
// cut keeps apart from what the running process sees. A file's durable
// content is what its last Sync covered; a create, rename or remove is
// durable once SyncDir runs. crashStates lists every directory a power
// cut can leave. Any operation can be made to fail through fail, and
// before runs ahead of every operation: the crash check's boundary.
type memFS struct {
	live    map[string]*inode // the directory as the process sees it
	durable map[string]*inode // the directory as of the last SyncDir
	pending []dirOp           // directory operations since then, in order

	fail   func(op, name string) error
	before func(op, name string)
}

type inode struct {
	data   []byte // what a read sees
	synced []byte // what the last Sync covered
}

// dirOp is one directory operation not yet made durable: a create
// (from == ""), a rename (from → to) or a remove (to == "").
type dirOp struct {
	from, to string
	node     *inode
}

func newMemFS() *memFS { return &memFS{live: map[string]*inode{}, durable: map[string]*inode{}} }

// memFSOf is a file system that holds files durably, as after a restart.
func memFSOf(files map[string][]byte) *memFS {
	m := newMemFS()
	for name, data := range files {
		data = bytes.Clone(data)
		n := &inode{data: data, synced: data}
		m.live[name], m.durable[name] = n, n
	}
	return m
}

// failOnce makes the first op on a name ending in suffix fail.
func (m *memFS) failOnce(op, suffix string) {
	m.fail = func(o, name string) error {
		if o != op || !strings.HasSuffix(name, suffix) {
			return nil
		}
		m.fail = nil
		return errDisk
	}
}

// enter runs the boundary hook and the failure schedule for one op.
func (m *memFS) enter(op, name string) error {
	if m.before != nil {
		m.before(op, name)
	}
	if m.fail != nil {
		return m.fail(op, name)
	}
	return nil
}

func (m *memFS) MkdirAll(dir string) error { return m.enter("mkdir", dir) }

func (m *memFS) ReadDir(dir string) ([]string, error) {
	if err := m.enter("readdir", dir); err != nil {
		return nil, err
	}
	var names []string
	for name := range m.live {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	if err := m.enter("read", name); err != nil {
		return nil, err
	}
	n, ok := m.live[name]
	if !ok {
		return nil, fs.ErrNotExist
	}
	return bytes.Clone(n.data), nil
}

func (m *memFS) OpenFile(name string, flag int) (File, error) {
	if err := m.enter("open", name); err != nil {
		return nil, err
	}
	n, ok := m.live[name]
	switch {
	case flag&os.O_TRUNC != 0 || !ok && flag&os.O_CREATE != 0:
		// Every truncating open here is of a fresh temp name; model it
		// as a new file.
		n = &inode{}
		m.live[name] = n
		m.pending = append(m.pending, dirOp{to: name, node: n})
	case !ok:
		return nil, fs.ErrNotExist
	}
	return &memFile{fs: m, name: name, node: n}, nil
}

func (m *memFS) Rename(oldname, newname string) error {
	if err := m.enter("rename", oldname); err != nil {
		return err
	}
	n, ok := m.live[oldname]
	if !ok {
		return fs.ErrNotExist
	}
	delete(m.live, oldname)
	m.live[newname] = n
	m.pending = append(m.pending, dirOp{from: oldname, to: newname, node: n})
	return nil
}

func (m *memFS) Remove(name string) error {
	if err := m.enter("remove", name); err != nil {
		return err
	}
	if _, ok := m.live[name]; !ok {
		return fs.ErrNotExist
	}
	delete(m.live, name)
	m.pending = append(m.pending, dirOp{from: name})
	return nil
}

func (m *memFS) SyncDir(dir string) error {
	if err := m.enter("syncdir", dir); err != nil {
		return err
	}
	m.durable = maps.Clone(m.live)
	m.pending = nil
	return nil
}

// crashStates lists every directory a power cut can leave: each pending
// directory operation done or not, and each reachable file holding its
// synced content plus any prefix of what was written after it. A file
// cut below its synced length (no writer here does that) keeps either
// its synced or its full content.
func (m *memFS) crashStates() []map[string][]byte {
	var out []map[string][]byte
	seen := map[string]bool{}
	for mask := 0; mask < 1<<len(m.pending); mask++ {
		dir := maps.Clone(m.durable)
		for i, op := range m.pending {
			if mask&(1<<i) == 0 {
				continue
			}
			switch {
			case op.from == "":
				dir[op.to] = op.node
			case op.to == "":
				delete(dir, op.from)
			default:
				if n, ok := dir[op.from]; ok {
					delete(dir, op.from)
					dir[op.to] = n
				}
			}
		}
		names := make([]string, 0, len(dir))
		for name := range dir {
			names = append(names, name)
		}
		sort.Strings(names)
		states := []map[string][]byte{{}}
		for _, name := range names {
			var next []map[string][]byte
			for _, content := range dir[name].crashContents() {
				for _, s := range states {
					s = maps.Clone(s)
					s[name] = content
					next = append(next, s)
				}
			}
			states = next
		}
		for _, s := range states {
			var key strings.Builder
			for _, name := range names {
				key.WriteString(name + "\x00" + string(s[name]) + "\x00")
			}
			if !seen[key.String()] {
				seen[key.String()] = true
				out = append(out, s)
			}
		}
	}
	return out
}

func (n *inode) crashContents() [][]byte {
	if !bytes.HasPrefix(n.data, n.synced) {
		return [][]byte{n.synced, n.data}
	}
	var out [][]byte
	for k := len(n.synced); k <= len(n.data); k++ {
		out = append(out, n.data[:k])
	}
	return out
}

// memFile is an open memFS file. Every writer here appends: the segment
// is opened O_APPEND and temp files are written once from the start.
type memFile struct {
	fs   *memFS
	name string
	node *inode
}

// Write appends p; an injected failure writes half of it first, as a
// short write does.
func (f *memFile) Write(p []byte) (int, error) {
	if err := f.fs.enter("write", f.name); err != nil {
		f.node.data = append(f.node.data, p[:len(p)/2]...)
		return len(p) / 2, err
	}
	f.node.data = append(f.node.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	if err := f.fs.enter("sync", f.name); err != nil {
		return err
	}
	f.node.synced = bytes.Clone(f.node.data)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	if err := f.fs.enter("truncate", f.name); err != nil {
		return err
	}
	f.node.data = f.node.data[:size]
	return nil
}

func (f *memFile) Close() error { return f.fs.enter("close", f.name) }
