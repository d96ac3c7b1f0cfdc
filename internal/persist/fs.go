// Package persist makes a lake durable: a versioned, section-checksummed
// binary snapshot of everything preprocessing computed, plus a write-ahead
// log of Add/Remove batches that is fsynced before the in-memory mutation
// is acknowledged. Recovery loads the newest readable snapshot and replays
// the log over it, truncating at the first torn or corrupt record, so a
// crash at any instant loses at most the mutation that was never
// acknowledged.
//
// Every byte that reaches disk goes through the FS interface below. The
// production implementation is a thin veneer over the os package; the
// fault-injection implementation (MemFS) simulates power loss at every
// write/fsync/rename point and byte corruption in place, which is what the
// crash-matrix suite drives.
package persist

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is a writable file handle. Write buffers in the OS like an ordinary
// file; nothing is durable until Sync returns.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem slice the store needs. Durability semantics mirror
// POSIX: file writes are volatile until the file is synced, and directory
// entries (created, renamed or removed names) are volatile until the
// directory is synced. Rename is atomic: after a crash the name refers to
// either the old or the new file, never a mix.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Append opens name for appending, creating it when missing.
	Append(name string) (File, error)
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname's file.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// ReadDir lists the file names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// MkdirAll creates dir (and parents) if missing.
	MkdirAll(dir string) error
	// SyncDir makes dir's current entries durable.
	SyncDir(dir string) error
}

// OSFS is the production FS: the real filesystem.
type OSFS struct{}

func (OSFS) Create(name string) (File, error) { return os.Create(name) }

func (OSFS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// replaceFile atomically replaces path with the concatenated chunks: temp
// file, one write per chunk, file sync, close, rename into place, directory
// sync. A crash at any of those points leaves path naming either its old
// file or the complete new one. It returns the bytes written.
func replaceFile(fsys FS, path string, chunks ...[]byte) (int64, error) {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			f.Close()
			return 0, err
		}
		n += int64(len(c))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return 0, err
	}
	return n, fsys.SyncDir(filepath.Dir(path))
}
