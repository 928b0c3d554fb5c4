package wal

import (
	"errors"
	"sync"
)

// Injected fault sentinels. ErrInjected marks a plain injected failure
// (the write did not happen); ErrCrashed marks the simulated crash
// point — every operation after it fails, as if the process had died.
var (
	ErrInjected = errors.New("wal: injected fault")
	ErrCrashed  = errors.New("wal: injected crash")
)

// FaultFS wraps an FS with injectable failures. It drives the
// crash-recovery matrix: CrashAfterBytes cuts the write stream at an
// exact byte (everything before reaches the underlying file, nothing
// after does — the on-disk image is precisely what a kill at that
// instant would leave under prefix-durable appends), FailWrites and
// FailSync (file and directory syncs alike) simulate a dying disk for
// the read-only degradation path, and ShortWriteOnce models a partial
// write that reports failure. Syncs counts the file syncs that reached
// the base FS. All methods are safe for concurrent use.
type FaultFS struct {
	base FS

	mu          sync.Mutex
	failWrites  error
	failSync    error
	crashBudget int64 // remaining write bytes before the crash; -1 disarmed
	crashed     bool
	shortOnce   bool
	syncs       int
}

// NewFaultFS returns a FaultFS over base (OSFS when nil) with no faults
// armed.
func NewFaultFS(base FS) *FaultFS {
	if base == nil {
		base = OSFS{}
	}
	return &FaultFS{base: base, crashBudget: -1}
}

// FailWrites makes every subsequent write fail with err (nil disarms).
func (f *FaultFS) FailWrites(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWrites = err
}

// FailSync makes every subsequent Sync fail with err (nil disarms).
func (f *FaultFS) FailSync(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSync = err
}

// ShortWriteOnce makes the next write persist only half its bytes and
// report ErrInjected — a torn frame with an error the writer sees.
func (f *FaultFS) ShortWriteOnce() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortOnce = true
}

// CrashAfterBytes arms the crash point: the next n write bytes succeed,
// the write that crosses the boundary persists exactly up to it and
// fails with ErrCrashed, and every later operation fails with
// ErrCrashed. Negative disarms.
func (f *FaultFS) CrashAfterBytes(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashBudget = n
	f.crashed = false
}

// Crashed reports whether the armed crash point has been hit.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Syncs reports how many file syncs (not directory syncs) have reached
// the base FS.
func (f *FaultFS) Syncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// opErr is the common per-operation gate for non-write operations.
func (f *FaultFS) opErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	if err := f.opErr(); err != nil {
		return nil, err
	}
	file, err := f.base.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FaultFS) Create(name string) (File, error) {
	if err := f.opErr(); err != nil {
		return nil, err
	}
	file, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := f.opErr(); err != nil {
		return nil, err
	}
	return f.base.ReadFile(name)
}

func (f *FaultFS) Rename(oldname, newname string) error {
	if err := f.opErr(); err != nil {
		return err
	}
	return f.base.Rename(oldname, newname)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.opErr(); err != nil {
		return err
	}
	return f.base.Truncate(name, size)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.opErr(); err != nil {
		return err
	}
	return f.base.Remove(name)
}

// SyncDir forwards to the base FS unless crashed or FailSync is armed.
func (f *FaultFS) SyncDir(dir string) error {
	if err := f.syncErr(); err != nil {
		return err
	}
	return f.base.SyncDir(dir)
}

// syncErr is the gate shared by file and directory syncs.
func (f *FaultFS) syncErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return f.failSync
}

// faultFile interposes the write-path faults on one file handle.
type faultFile struct {
	fs *FaultFS
	f  File
}

// Write applies the armed faults, deciding under the FS lock how many
// of p's bytes may reach the underlying file, then writing them outside
// it (the underlying handle is not shared).
func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	if w.fs.crashed {
		w.fs.mu.Unlock()
		return 0, ErrCrashed
	}
	if err := w.fs.failWrites; err != nil {
		w.fs.mu.Unlock()
		return 0, err
	}
	allow := len(p)
	var ferr error
	if w.fs.shortOnce {
		w.fs.shortOnce = false
		allow = len(p) / 2
		ferr = ErrInjected
	}
	if w.fs.crashBudget >= 0 {
		if int64(allow) >= w.fs.crashBudget {
			allow = int(w.fs.crashBudget)
			w.fs.crashed = true
			ferr = ErrCrashed
		}
		w.fs.crashBudget -= int64(allow)
	}
	w.fs.mu.Unlock()

	n := 0
	if allow > 0 {
		var err error
		n, err = w.f.Write(p[:allow])
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	if ferr == nil && n < len(p) {
		ferr = ErrInjected
	}
	return n, ferr
}

func (w *faultFile) Sync() error {
	if err := w.fs.syncErr(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	w.fs.syncs++
	return nil
}

func (w *faultFile) Close() error { return w.f.Close() }
