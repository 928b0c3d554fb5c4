package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// logRecords appends n deterministic records through a fresh log and
// returns the file path and the payloads written.
func logRecords(t *testing.T, dir string, opts Options, n int) (string, [][]byte) {
	t.Helper()
	path := filepath.Join(dir, "t.wal")
	l, recs, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recs))
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf(`{"i":%d,"pad":"%032d"}`, i, i))
		typ := TypeMeasurementBlock
		if i == 0 {
			typ = TypeDatasetCreate
		}
		if err := l.Append(typ, payloads[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path, payloads
}

func TestRoundTrip(t *testing.T) {
	// Named by the policy it logs under; PolicyAlways is the only one.
	t.Run(PolicyAlways, func(t *testing.T) {
		path, payloads := logRecords(t, t.TempDir(), Options{Policy: PolicyAlways}, 7)
		l, recs, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if len(recs) != len(payloads) {
			t.Fatalf("recovered %d records, wrote %d", len(recs), len(payloads))
		}
		for i, r := range recs {
			if !bytes.Equal(r.Payload, payloads[i]) {
				t.Fatalf("record %d payload mismatch", i)
			}
		}
		if recs[0].Type != TypeDatasetCreate || recs[1].Type != TypeMeasurementBlock {
			t.Fatalf("record types lost: %v %v", recs[0].Type, recs[1].Type)
		}
		// Appends continue after recovery.
		if err := l.Append(TypeBudgetRestore, []byte(`{"consumed":1}`)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs2, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs2) != len(payloads)+1 {
			t.Fatalf("after reopen-append: %d records", len(recs2))
		}
	})
}

// TestTornTailEveryByte is the exhaustive prefix matrix at the wal
// layer: the log truncated at EVERY byte offset must recover exactly
// the records whose frames fit completely in the prefix — never a
// partial record, never an error.
func TestTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	path, payloads := logRecords(t, dir, Options{}, 5)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries from a full scan.
	full, clean := Scan(img)
	if clean != len(img) || len(full) != len(payloads) {
		t.Fatalf("healthy image: %d records, clean %d of %d", len(full), clean, len(img))
	}
	bounds := []int{len(Magic)}
	off := len(Magic)
	for _, r := range full {
		off += frameOverhead + len(r.Payload)
		bounds = append(bounds, off)
	}
	wantAt := func(cut int) int {
		n := 0
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= cut {
				n = i
			}
		}
		return n
	}
	cutPath := filepath.Join(dir, "cut.wal")
	for cut := 0; cut <= len(img); cut++ {
		if err := os.WriteFile(cutPath, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(cutPath, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if len(recs) != wantAt(cut) {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), wantAt(cut))
		}
		for i, r := range recs {
			if !bytes.Equal(r.Payload, payloads[i]) {
				t.Fatalf("cut %d: record %d corrupted", cut, i)
			}
		}
		// Recovery must leave an appendable log.
		if err := l.Append(TypeBudgetRestore, []byte("x")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, recs2, err := Open(cutPath, Options{}); err != nil || len(recs2) != wantAt(cut)+1 {
			t.Fatalf("cut %d: reopen after append: %d records, err %v", cut, len(recs2), err)
		}
		os.Remove(cutPath)
	}
}

// TestCorruptByteTruncatesAtFirstBadFrame flips one byte at a sample of
// offsets: recovery keeps every record before the damaged frame and
// drops the rest — and never panics or refuses to start.
func TestCorruptByteTruncatesAtFirstBadFrame(t *testing.T) {
	dir := t.TempDir()
	path, payloads := logRecords(t, dir, Options{}, 5)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := Scan(img)
	bounds := []int{len(Magic)}
	off := len(Magic)
	for _, r := range full {
		off += frameOverhead + len(r.Payload)
		bounds = append(bounds, off)
	}
	frameOf := func(pos int) int {
		for i := 1; i < len(bounds); i++ {
			if pos < bounds[i] {
				return i - 1
			}
		}
		return len(bounds) - 1
	}
	cutPath := filepath.Join(dir, "corrupt.wal")
	for pos := 0; pos < len(img); pos += 3 {
		bad := append([]byte(nil), img...)
		bad[pos] ^= 0x5a
		if err := os.WriteFile(cutPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(cutPath, Options{})
		if err != nil {
			t.Fatalf("corrupt @%d: open: %v", pos, err)
		}
		l.Close()
		want := 0
		if pos >= len(Magic) {
			want = frameOf(pos)
		}
		// A flipped byte can only ever shorten the accepted prefix to the
		// damaged frame; records before it survive verbatim.
		if len(recs) > want {
			t.Fatalf("corrupt @%d: accepted %d records past the damage (want <= %d)", pos, len(recs), want)
		}
		for i, r := range recs {
			if !bytes.Equal(r.Payload, payloads[i]) {
				t.Fatalf("corrupt @%d: surviving record %d corrupted", pos, i)
			}
		}
		os.Remove(cutPath)
	}
}

// TestZeroHoleTruncates models an out-of-order fsync hole: a zeroed
// span mid-file must stop replay at the hole, keeping the prefix.
func TestZeroHoleTruncates(t *testing.T) {
	dir := t.TempDir()
	path, payloads := logRecords(t, dir, Options{}, 4)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := Scan(img)
	secondStart := len(Magic) + frameOverhead + len(full[0].Payload)
	hole := append([]byte(nil), img...)
	for i := secondStart; i < secondStart+frameOverhead+len(full[1].Payload); i++ {
		hole[i] = 0
	}
	if err := os.WriteFile(path, hole, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 1 || !bytes.Equal(recs[0].Payload, payloads[0]) {
		t.Fatalf("hole recovery kept %d records, want exactly the first", len(recs))
	}
}

// TestOpenCheckRefusesBeforeTruncating: a Check that refuses the image
// fails Open with the torn file exactly as it was.
func TestOpenCheckRefusesBeforeTruncating(t *testing.T) {
	dir := t.TempDir()
	path, _ := logRecords(t, dir, Options{}, 3)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := img[:len(img)-2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	refuse := errors.New("refused")
	var saw int
	check := func(data []byte, recs []Record) error {
		if !bytes.Equal(data, torn) {
			t.Fatal("check did not see the log image")
		}
		saw = len(recs)
		return refuse
	}
	if _, _, err := Open(path, Options{Check: check}); !errors.Is(err, refuse) {
		t.Fatalf("open with a refusing check: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, torn) {
		t.Fatalf("refused open changed the log (err %v)", err)
	}
	if want, _ := Scan(torn); saw != len(want) {
		t.Fatalf("check saw %d records, want %d", saw, len(want))
	}
}

// TestReplaceSwapsLogAtomically pins compaction's file swap: the
// replaced log holds exactly the given records and takes appends, and a
// crash while the new image is being written leaves the old log byte
// for byte.
func TestReplaceSwapsLogAtomically(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "d.wal")
	l, _, err := Open(logPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(TypeMeasurementBlock, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	oldImg, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	head := []Record{{Type: TypeDatasetCreate, Payload: []byte("create")}, {Type: TypeMeasurementBlock, Payload: []byte("full")}}

	// A crash anywhere in the temp write: Replace fails, the log is the
	// old one.
	img := []byte(Magic)
	for _, r := range head {
		img = AppendFrame(img, r.Type, r.Payload)
	}
	for _, cut := range []int64{0, 1, int64(len(img)) / 2, int64(len(img)) - 1} {
		ffs := NewFaultFS(nil)
		ffs.CrashAfterBytes(cut)
		if _, err := Replace(logPath, head, Options{FS: ffs}); !errors.Is(err, ErrCrashed) {
			t.Fatalf("cut %d: replace across the crash point: %v", cut, err)
		}
		if got, err := os.ReadFile(logPath); err != nil || !bytes.Equal(got, oldImg) {
			t.Fatalf("cut %d: crashed replace changed the log (err %v)", cut, err)
		}
	}

	nl, err := Replace(logPath, head, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(logPath); err != nil || fi.Size() != int64(len(img)) {
		t.Fatalf("replaced log on disk: %v, err %v; want %d bytes", fi, err, len(img))
	}
	if err := nl.Append(TypeMeasurementBlock, []byte("post")); err != nil {
		t.Fatal(err)
	}
	nl.Close()
	_, recs, err := Open(logPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || string(recs[0].Payload) != "create" || string(recs[1].Payload) != "full" || string(recs[2].Payload) != "post" {
		t.Fatalf("replaced log contents wrong: %+v", recs)
	}
}

// recordingFS logs the mutating operations that reach the filesystem.
type recordingFS struct {
	FS
	ops []string
}

func (r *recordingFS) Create(name string) (File, error) {
	r.ops = append(r.ops, "create "+filepath.Base(name))
	return r.FS.Create(name)
}

func (r *recordingFS) OpenAppend(name string) (File, error) {
	r.ops = append(r.ops, "open "+filepath.Base(name))
	return r.FS.OpenAppend(name)
}

func (r *recordingFS) Rename(oldname, newname string) error {
	r.ops = append(r.ops, "rename "+filepath.Base(oldname)+" "+filepath.Base(newname))
	return r.FS.Rename(oldname, newname)
}

func (r *recordingFS) SyncDir(dir string) error {
	r.ops = append(r.ops, "syncdir "+dir)
	return r.FS.SyncDir(dir)
}

// TestRenamesAndCreatesSyncTheDirectory pins durable renames: without a
// sync of the parent directory a rename (or a new file) can be undone
// by a power loss, bringing back a log that lacks acknowledged commits.
// Whether the sync reaches the platter cannot be observed here; the
// order of operations and the error path can.
func TestRenamesAndCreatesSyncTheDirectory(t *testing.T) {
	dir := t.TempDir()
	rec := &recordingFS{FS: OSFS{}}
	if err := WriteFileAtomic(rec, filepath.Join(dir, "a.json"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	want := []string{"create a.json.tmp", "rename a.json.tmp a.json", "syncdir " + dir}
	if fmt.Sprint(rec.ops) != fmt.Sprint(want) {
		t.Fatalf("atomic write ops %q, want %q", rec.ops, want)
	}

	rec.ops = nil
	l, _, err := Open(filepath.Join(dir, "n.wal"), Options{FS: rec})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	want = []string{"open n.wal", "syncdir " + dir}
	if fmt.Sprint(rec.ops) != fmt.Sprint(want) {
		t.Fatalf("fresh log ops %q, want %q", rec.ops, want)
	}

	boom := errors.New("directory sync failed")
	bad := dirSyncFails{OSFS{}, boom}
	if err := WriteFileAtomic(bad, filepath.Join(dir, "b.json"), []byte("two")); !errors.Is(err, boom) {
		t.Fatalf("atomic write ignored a failed directory sync: %v", err)
	}
	if _, _, err := Open(filepath.Join(dir, "m.wal"), Options{FS: bad}); !errors.Is(err, boom) {
		t.Fatalf("fresh log ignored a failed directory sync: %v", err)
	}
	ffs := NewFaultFS(nil)
	ffs.FailSync(boom)
	if err := ffs.SyncDir(dir); !errors.Is(err, boom) {
		t.Fatalf("FaultFS.FailSync does not reach directory syncs: %v", err)
	}
}

// dirSyncFails is a filesystem whose directory syncs fail while file
// syncs succeed.
type dirSyncFails struct {
	FS
	err error
}

func (f dirSyncFails) SyncDir(string) error { return f.err }

func TestFaultFSCrashAfterBytesLeavesTornFrame(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.wal")
	ffs := NewFaultFS(nil)
	l, _, err := Open(path, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(TypeDatasetCreate, []byte("full-record")); err != nil {
		t.Fatal(err)
	}
	// Crash 5 bytes into the next frame.
	ffs.CrashAfterBytes(5)
	err = l.Append(TypeMeasurementBlock, []byte("doomed-record"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("append across crash point: %v", err)
	}
	if !ffs.Crashed() {
		t.Fatal("crash point not latched")
	}
	if err := l.Append(TypeMeasurementBlock, []byte("after")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append after crash: %v", err)
	}
	// The on-disk image holds the first record and 5 bytes of torn frame.
	l2, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "full-record" {
		t.Fatalf("recovery after injected crash: %+v", recs)
	}
}

func TestFaultFSShortWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.wal")
	ffs := NewFaultFS(nil)
	l, _, err := Open(path, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(TypeDatasetCreate, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	ffs.ShortWriteOnce()
	if err := l.Append(TypeMeasurementBlock, []byte("torn")); !errors.Is(err, ErrInjected) {
		t.Fatalf("short write not surfaced: %v", err)
	}
	_, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("short-written frame accepted: %d records", len(recs))
	}
}

func TestFaultFSFailSync(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	l, _, err := Open(filepath.Join(dir, "f.wal"), Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	ffs.FailSync(boom)
	if err := l.Append(TypeDatasetCreate, []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("append ignored sync failure: %v", err)
	}
}

// TestEveryAppendSyncs: each successful append is followed by exactly
// one file sync, so an acknowledged commit is on stable storage.
func TestEveryAppendSyncs(t *testing.T) {
	ffs := NewFaultFS(nil)
	l, _, err := Open(filepath.Join(t.TempDir(), "s.wal"), Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	base := ffs.Syncs() // the fresh log's header sync
	const n = 5
	for i := 1; i <= n; i++ {
		if err := l.Append(TypeMeasurementBlock, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if got := ffs.Syncs() - base; got != i {
			t.Fatalf("after %d appends: %d syncs", i, got)
		}
	}
}

// TestOpenRejectsBadPolicy: only "" and PolicyAlways open a log; the
// retired "interval" and "never" policies fail like any unknown name.
func TestOpenRejectsBadPolicy(t *testing.T) {
	for _, policy := range []string{"interval", "never", "sometimes"} {
		if _, _, err := Open(filepath.Join(t.TempDir(), "x.wal"), Options{Policy: policy}); err == nil {
			t.Fatalf("policy %q accepted", policy)
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _, err := Open(filepath.Join(t.TempDir(), "x.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(TypeDatasetCreate, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed log: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	if err := WriteFileAtomic(OSFS{}, path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(OSFS{}, path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "two" {
		t.Fatalf("atomic write: %q err %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temp file left behind")
	}
}

// TestFrameVerifiesAs: a frame whose type byte is damaged still
// verifies as the type it was written with, and as no other; damage
// anywhere else verifies as nothing.
func TestFrameVerifiesAs(t *testing.T) {
	frame := AppendFrame(nil, TypeAuditState, []byte(`{"leaves":[]}`))
	if !FrameVerifiesAs(frame, TypeAuditState) || FrameVerifiesAs(frame, TypeMeasurementBlock) {
		t.Fatal("intact frame does not verify as exactly its own type")
	}
	for p := range frame {
		bad := append([]byte(nil), frame...)
		bad[p] ^= 0xa5
		if got, want := FrameVerifiesAs(bad, TypeAuditState), p == FrameHeader-1; got != want {
			t.Fatalf("flip @%d: verifies as audit state %v, want %v", p, got, want)
		}
	}
	if FrameVerifiesAs(frame[:len(frame)-1], TypeAuditState) {
		t.Fatal("cut-short frame verifies")
	}
}
