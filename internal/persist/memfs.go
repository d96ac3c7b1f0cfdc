package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync"
)

// ErrCrashed is returned by every MemFS operation at and after the injected
// power-failure point: the process under test is "dead" and must abort.
var ErrCrashed = errors.New("persist: simulated power failure")

// MemFS is the fault-injection FS: an in-memory filesystem that tracks,
// for every file, which prefix of its content is durable (synced) and
// which directory entries are durable (dir-synced). SetCrash schedules a
// power failure at the Nth mutating operation; once it fires, every
// operation fails with ErrCrashed until PowerCycle applies the volatile
// loss — unsynced tails dropped (except a configurable kept fraction,
// modeling background writeback racing the failure), unsynced
// creates/renames/removes reverted — and "reboots" the filesystem for the
// recovery run.
//
// The namespace is flat: paths are opaque names living in one directory,
// which is all the store uses. MemFS is safe for concurrent use.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memInode // current (volatile) directory view
	durable map[string]*memInode // dir-synced directory view
	ops     int
	crashOp int     // mutating-op index the failure fires at; -1 = never
	keep    float64 // fraction of each unsynced tail that survives the crash
	crashed bool
}

// memInode is one file's content. data is the current content; the first
// syncedLen bytes of it are durable.
type memInode struct {
	data      []byte
	syncedLen int
}

// NewMemFS returns an empty in-memory filesystem with no crash scheduled.
func NewMemFS() *MemFS {
	return &MemFS{
		files:   make(map[string]*memInode),
		durable: make(map[string]*memInode),
		crashOp: -1,
	}
}

// SetCrash schedules a power failure at mutating operation index op
// (0-based, counted from now across Create/Append/Write/Sync/Rename/
// Remove/SyncDir calls): that operation and every one after it fail with
// ErrCrashed. keep is the fraction (0..1) of each file's unsynced tail
// that PowerCycle will declare durable anyway — 0 models a strict
// nothing-unsynced-survives failure, intermediate values model torn tails.
func (m *MemFS) SetCrash(op int, keep float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops = 0
	m.crashOp = op
	m.keep = keep
}

// Ops reports how many mutating operations have run since the last
// SetCrash (or since creation). A golden run with no crash scheduled uses
// it to size the crash matrix.
func (m *MemFS) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// Crashed reports whether the scheduled power failure has fired.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// PowerCycle applies the volatile loss of the crash and reboots: every
// file keeps its durable prefix plus the kept fraction of its unsynced
// tail, the directory reverts to its dir-synced entries, and operations
// succeed again (no crash scheduled until the next SetCrash). It may also
// be called without a crash to simulate a clean-shutdown-free reboot.
func (m *MemFS) PowerCycle() {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[*memInode]bool)
	m.files = make(map[string]*memInode, len(m.durable))
	for name, ino := range m.durable {
		if !seen[ino] {
			seen[ino] = true
			keep := ino.syncedLen + int(m.keep*float64(len(ino.data)-ino.syncedLen))
			ino.data = ino.data[:keep]
			ino.syncedLen = keep
		}
		m.files[name] = ino
	}
	m.crashed = false
	m.crashOp = -1
}

// Corrupt XORs the byte at off of name's current content with xor (xor=0
// flips nothing; pass e.g. 0xff to damage it) and reports whether the
// offset existed. It is the corruption-pass hook: checksums must catch
// whatever it does.
func (m *MemFS) Corrupt(name string, off int, xor byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.files[name]
	if !ok || off < 0 || off >= len(ino.data) {
		return false
	}
	ino.data[off] ^= xor
	return true
}

// Len reports the current content length of name (0 when absent).
func (m *MemFS) Len(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ino, ok := m.files[name]; ok {
		return len(ino.data)
	}
	return 0
}

// step gates one mutating operation, firing the scheduled crash.
// m.mu must be held.
func (m *MemFS) step() error {
	if m.crashed {
		return ErrCrashed
	}
	if m.crashOp >= 0 && m.ops >= m.crashOp {
		m.crashed = true
		return ErrCrashed
	}
	m.ops++
	return nil
}

// memFile is a writable handle onto a MemFS inode.
type memFile struct {
	fs  *MemFS
	ino *memInode
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.step(); err != nil {
		return 0, err
	}
	f.ino.data = append(f.ino.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.step(); err != nil {
		return err
	}
	f.ino.syncedLen = len(f.ino.data)
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return ErrCrashed
	}
	return nil
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return nil, err
	}
	ino := &memInode{}
	m.files[name] = ino
	return &memFile{fs: m, ino: ino}, nil
}

func (m *MemFS) Append(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return nil, err
	}
	ino, ok := m.files[name]
	if !ok {
		ino = &memInode{}
		m.files[name] = ino
	}
	return &memFile{fs: m, ino: ino}, nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	ino, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("memfs: %s: %w", name, fs.ErrNotExist)
	}
	return append([]byte(nil), ino.data...), nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	ino, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("memfs: rename %s: file does not exist", oldname)
	}
	delete(m.files, oldname)
	m.files[newname] = ino
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("memfs: remove %s: file does not exist", name)
	}
	delete(m.files, name)
	return nil
}

// ReadDir lists the files under dir, returned as base names (matching
// OSFS): a stored name "lake/wal" is listed by ReadDir("lake") as "wal".
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	prefix := strings.TrimSuffix(dir, "/") + "/"
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		if rest, ok := strings.CutPrefix(name, prefix); ok && !strings.Contains(rest, "/") {
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) MkdirAll(string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	return nil
}

func (m *MemFS) SyncDir(string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	m.durable = make(map[string]*memInode, len(m.files))
	for name, ino := range m.files {
		m.durable[name] = ino
	}
	return nil
}
