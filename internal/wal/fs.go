package wal

import (
	"io"
	"os"
)

// File is the write-side file handle the log needs: sequential writes,
// durability, close.
type File interface {
	io.Writer
	// Sync flushes written bytes to stable storage.
	Sync() error
	Close() error
}

// FS is the filesystem surface of the WAL tier. Everything the log (and
// the serve tier's persistence) touches on disk goes through it, so a
// test can interpose FaultFS and drive the full crash matrix without a
// real crash.
type FS interface {
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Create opens name truncated for writing, creating it if absent.
	Create(name string) (File, error)
	// ReadFile returns the full contents of name; a missing file
	// reports os.ErrNotExist.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// Remove deletes name.
	Remove(name string) error
	// SyncDir flushes the directory dir itself, so a file created in it
	// or renamed into it survives a power loss.
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
