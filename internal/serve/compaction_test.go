package serve

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core/plans"
	"repro/internal/wal"
)

// fixedAuditKey keeps these tests' state directories free of a
// generated audit.key, so they hold only what the datasets write.
var fixedAuditKey = ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))

// compactedLog commits on a "ck" dataset (normal solver, compaction
// every second state record) until the log has been compacted and has a
// tail, and returns the log image, the head's byte length and the state
// that was live at close.
func compactedLog(t *testing.T) (data []byte, headEnd int, live machineState) {
	t.Helper()
	dir := t.TempDir()
	s := New(Config{BatchWindow: 100 * time.Microsecond, StateDir: dir, CheckpointEvery: 2, AuditKey: fixedAuditKey})
	d, err := s.CreateDatasetWithOptions("ck", "piecewise", 32, 5000, 3, 10, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"identity", "hb", "total"} {
		if _, err := d.Measure(m, 1); err != nil {
			t.Fatal(err)
		}
	}
	live = captureMachine(t, d)
	s.Close()
	if data, err = os.ReadFile(walFilePath(dir, "ck")); err != nil {
		t.Fatal(err)
	}
	recs, _ := wal.Scan(data)
	if len(recs) < 5 || recs[1].Type != wal.TypeAuditState || recs[3].Type != wal.TypeAuditCheckpoint {
		t.Fatalf("log was not compacted: %+v", recs)
	}
	headEnd = len(wal.Magic)
	for _, r := range recs[:4] {
		headEnd += len(wal.AppendFrame(nil, r.Type, r.Payload))
	}
	return data, headEnd, live
}

// createOnWAL re-creates the "ck" dataset over a state directory holding
// only the given log image.
func createOnWAL(t *testing.T, dir string, img []byte) (*Dataset, error) {
	t.Helper()
	if err := os.WriteFile(walFilePath(dir, "ck"), img, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{BatchWindow: 100 * time.Microsecond, StateDir: dir, CheckpointEvery: 2, AuditKey: fixedAuditKey})
	t.Cleanup(s.Close)
	return s.CreateDatasetWithOptions("ck", "piecewise", 32, 5000, 3, 10, SolverNormal, 0)
}

// TestCompactedHeadLoadsWholeOrNotAtAll damages a compacted head — cut
// short or with a flipped byte anywhere from the magic on — and requires
// the create to fail with ErrSnapshot, every time it is tried, without
// touching the log: a head that loaded as a torn prefix would come back
// as an empty dataset with its spent ε re-granted. Only a log cut
// before the second frame's type byte, which is what marks the head,
// cannot be told from a fresh log torn in its first commit, and loads
// as that.
func TestCompactedHeadLoadsWholeOrNotAtAll(t *testing.T) {
	data, headEnd, live := compactedLog(t)
	recs, _ := wal.Scan(data)
	typeAt := len(wal.Magic) + len(wal.AppendFrame(nil, recs[0].Type, recs[0].Payload)) + wal.FrameHeader - 1

	refuse := func(t *testing.T, img []byte) {
		t.Helper()
		dir := t.TempDir()
		for try := 0; try < 2; try++ {
			d, err := createOnWAL(t, dir, img)
			if !errors.Is(err, ErrSnapshot) {
				var consumed float64
				if d != nil {
					consumed = d.Summary().Consumed
				}
				t.Fatalf("damaged head: create returned %v (consumed %v), want ErrSnapshot", err, consumed)
			}
			got, err := os.ReadFile(walFilePath(dir, "ck"))
			if err != nil || !bytes.Equal(got, img) {
				t.Fatalf("refused create changed the log (%d bytes, was %d; %v)", len(got), len(img), err)
			}
		}
	}
	t.Run("truncated", func(t *testing.T) {
		for c := typeAt + 1; c < headEnd; c += 29 {
			refuse(t, data[:c])
		}
		off := len(wal.Magic)
		for _, r := range recs[:3] {
			off += len(wal.AppendFrame(nil, r.Type, r.Payload))
			if off > typeAt {
				refuse(t, data[:off]) // a clean frame boundary inside the head
			}
		}
	})
	t.Run("bit-flip", func(t *testing.T) {
		// Every byte through the second frame's header, then a sample.
		for p := 0; p < headEnd; p++ {
			if p > typeAt && p%31 != 0 {
				continue
			}
			mut := append([]byte(nil), data...)
			mut[p] ^= 0xa5
			refuse(t, mut)
		}
	})
	// The undamaged log loads, with exactly the budget it had spent.
	d, err := createOnWAL(t, t.TempDir(), data)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMachine(t, "intact compacted log", captureMachine(t, d), live)
}

// TestFollowerRestartsFromCutShortBootstrap stops a follower's local log
// right after the shipped audit-state frame, as a crash between the
// appends of its bootstrap leaves it. The log has a compacted head's
// shape, but a follower's state comes from its primary, so the cut is a
// torn tail: the follower restarts on it and catches up.
func TestFollowerRestartsFromCutShortBootstrap(t *testing.T) {
	// A restarted primary streams its bootstrap records from offset 0.
	pdir := t.TempDir()
	ps := New(Config{StateDir: pdir, AuditKey: fixedAuditKey})
	pd, err := ps.CreateDatasetWithOptions("ds", "piecewise", 64, 1000, 9, 8, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"hb", "total"} {
		if _, err := pd.Measure(m, 1); err != nil {
			t.Fatal(err)
		}
	}
	ps.Close()
	ps = New(Config{StateDir: pdir, AuditKey: fixedAuditKey})
	defer ps.Close()
	if pd, err = ps.CreateDatasetWithOptions("ds", "piecewise", 64, 1000, 9, 8, SolverNormal, 0); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	follower := func() *Dataset {
		t.Helper()
		s := New(Config{StateDir: dir, AuditKey: fixedAuditKey})
		t.Cleanup(s.Close)
		d, err := s.CreateFollower("ds", 64, 8, 9, SolverNormal, 0, "http://primary.example")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	fd := follower()
	shipAll(t, pd, fd)
	fd.closePersistence()
	data, err := os.ReadFile(walFilePath(dir, "ds"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := wal.Scan(data)
	if len(recs) < 4 || recs[0].Type != wal.TypeDatasetCreate || recs[1].Type != wal.TypeAuditState {
		t.Fatalf("follower log does not open with create, audit state: %+v", recs)
	}
	cut := len(wal.Magic)
	for _, r := range recs[:2] {
		cut += len(wal.AppendFrame(nil, r.Type, r.Payload))
	}
	if err := os.WriteFile(walFilePath(dir, "ds"), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	fd = follower()
	shipAll(t, pd, fd)
	got, want := fd.Summary(), pd.Summary()
	if got.Generation != want.Generation || got.Consumed != want.Consumed || got.MeasuredRows != want.MeasuredRows || got.AuditRoot != want.AuditRoot {
		t.Fatalf("restarted follower: gen %d/%d, consumed %g/%g, rows %d/%d, audit root %s/%s",
			got.Generation, want.Generation, got.Consumed, want.Consumed, got.MeasuredRows, want.MeasuredRows, got.AuditRoot, want.AuditRoot)
	}
}

// crashOnSegment is a filesystem that crashes cut bytes into the temp
// write of a compaction's new log segment, after keeping the bytes the
// log held when compaction started.
type crashOnSegment struct {
	*wal.FaultFS
	walPath string
	cut     int64
	pre     []byte
}

func (c *crashOnSegment) Create(name string) (wal.File, error) {
	if name == c.walPath+".tmp" {
		c.pre, _ = os.ReadFile(c.walPath)
		c.CrashAfterBytes(c.cut)
	}
	return c.FaultFS.Create(name)
}

// TestCompactionCrashKeepsOldLog crashes a compaction while it writes
// the new segment: the log file is left exactly as it stood before
// compaction, and a restart on it reproduces the state the crashed
// process held, bit for bit.
func TestCompactionCrashKeepsOldLog(t *testing.T) {
	for _, cut := range []int64{0, 1, 64, 512} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			fs := &crashOnSegment{FaultFS: wal.NewFaultFS(nil), walPath: walFilePath(dir, "ck"), cut: cut}
			s1 := New(Config{BatchWindow: 100 * time.Microsecond, StateDir: dir, CheckpointEvery: 3, FS: fs, AuditKey: fixedAuditKey})
			d1, err := s1.CreateDatasetWithOptions("ck", "piecewise", 32, 5000, 3, 10, SolverNormal, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d1.Measure("identity", 1); err != nil {
				t.Fatal(err)
			}
			if _, err := d1.MeasurePlan("AHP", 13.5, plans.Params{}); err == nil {
				t.Fatal("overdrafting AHP did not fail")
			}
			// The third state record compacts, and the crash hits the segment.
			if _, err := d1.Measure("hb", 1); err != nil {
				t.Fatal(err)
			}
			if !fs.Crashed() || fs.pre == nil {
				t.Fatal("compaction did not reach the crash point")
			}
			if fi, err := os.Stat(fs.walPath + ".tmp"); err != nil || fi.Size() != cut {
				t.Fatalf("crash did not cut the segment's temp write at %d bytes: %v", cut, err)
			}
			live := captureMachine(t, d1)
			s1.Close()

			got, err := os.ReadFile(fs.walPath)
			if err != nil || !bytes.Equal(got, fs.pre) {
				t.Fatalf("crashed compaction changed the log (%d bytes, was %d; %v)", len(got), len(fs.pre), err)
			}
			s2 := New(Config{BatchWindow: 100 * time.Microsecond, StateDir: dir, CheckpointEvery: 3, AuditKey: fixedAuditKey})
			defer s2.Close()
			d2, err := s2.CreateDatasetWithOptions("ck", "piecewise", 32, 5000, 3, 10, SolverNormal, 0)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMachine(t, "restart after crashed compaction", captureMachine(t, d2), live)
		})
	}
}

// FuzzRestartReplay writes arbitrary bytes as a dataset's log and
// creates the dataset over it. Whatever the bytes, the create must not
// panic; a create that succeeds must hold consumed within eps_total and
// only finite blocks; and a log that opens with a compacted head (create,
// then audit state) cut short of its closing audit checkpoint must never
// load.
func FuzzRestartReplay(f *testing.F) {
	cfg := func(dir string) Config {
		return Config{BatchWindow: 100 * time.Microsecond, StateDir: dir, CheckpointEvery: 2, AuditKey: fixedAuditKey}
	}
	create := func(s *Server) (*Dataset, error) {
		return s.CreateDatasetWithOptions("fz", "piecewise", 8, 100, 3, 4, SolverNormal, 0)
	}
	dir := f.TempDir()
	s := New(cfg(dir))
	d, err := create(s)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := d.Measure("identity", 1); err != nil {
		f.Fatal(err)
	}
	if _, err := d.MeasurePlan("AHP", 4, plans.Params{}); err == nil {
		f.Fatal("overdrafting AHP did not fail")
	}
	if _, err := d.Measure("total", 0.5); err != nil {
		f.Fatal(err)
	}
	s.Close()
	compacted, err := os.ReadFile(walFilePath(dir, "fz"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compacted)
	for _, c := range []int{len(wal.Magic), 40, len(compacted) / 3, len(compacted) / 2, len(compacted) - 1} {
		f.Add(compacted[:c])
	}
	for _, p := range []int{0, len(wal.Magic) + 20} {
		mut := append([]byte(nil), compacted...)
		mut[p] ^= 0xa5
		f.Add(mut)
	}
	marker := wal.AppendFrame([]byte(wal.Magic), wal.TypeCheckpointMarker, []byte(`{"gen":1,"consumed":1}`))
	f.Add(marker)
	f.Add(wal.AppendFrame(marker, wal.TypeBudgetRestore, []byte(`{"consumed":3}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(walFilePath(dir, "fz"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(cfg(dir))
		defer s.Close()
		d, err := create(s)
		recs, _ := wal.Scan(data)
		if err == nil && len(recs) >= 2 && recs[0].Type == wal.TypeDatasetCreate && recs[1].Type == wal.TypeAuditState {
			closed := false
			for _, r := range recs[2:] {
				closed = closed || r.Type == wal.TypeAuditCheckpoint
			}
			if !closed {
				t.Fatalf("a compacted head without its audit checkpoint loaded (%d records)", len(recs))
			}
		}
		if err != nil {
			return
		}
		if c := d.Summary().Consumed; !(c <= 4+1e-9) {
			t.Fatalf("consumed %v beyond eps_total 4", c)
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		for i, b := range d.blocks {
			if _, err := json.Marshal(encodeBlock(b)); err != nil {
				t.Fatalf("block %d is not finite: %v", i, err)
			}
		}
	})
}
