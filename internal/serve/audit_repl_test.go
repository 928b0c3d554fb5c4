package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/mat"
	"repro/internal/wal"
)

// TestReplStreamTrimFloor pins the bounded-stream construction: with a
// small ReplRetain the in-memory replication buffer trims its oldest
// frames, offsets below the new base answer ErrWALRange (416 over
// HTTP), and a resync from offset zero serves a regenerated bootstrap
// stream that brings a fresh follower to a bit-identical replica.
func TestReplStreamTrimFloor(t *testing.T) {
	s := New(Config{BatchWindow: 100 * time.Microsecond, ReplRetain: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	pd, err := s.CreateDatasetWithOptions("ds", "piecewise", 64, 2000, 17, 50, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := pd.Measure("total", 0.5); err != nil {
			t.Fatal(err)
		}
	}
	pd.mu.Lock()
	base, frames := pd.repl.base, len(pd.repl.frames)
	pd.mu.Unlock()
	if base <= 0 {
		t.Fatalf("stream never trimmed: base %d after 8 commits with ReplRetain=4", base)
	}
	if frames > 4 {
		t.Fatalf("%d frames retained, want <= 4", frames)
	}

	// A trimmed offset fails closed, in-process and over HTTP alike.
	if _, _, _, _, err := pd.WALTail(base - 1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("WALTail below base: %v, want ErrWALRange", err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/datasets/ds/wal?from=%d", ts.URL, base-1))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("trimmed offset over HTTP: status %d, want 416", resp.StatusCode)
	}

	// Offset zero is the resync path: a regenerated bootstrap stream
	// (identity + collapsed ledger + full log) that lands a cold
	// follower at the primary's exact state.
	fs := New(Config{BatchWindow: 100 * time.Microsecond})
	defer fs.Close()
	fd, err := fs.CreateFollower("ds", 64, 50, 17, SolverNormal, 0, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	boot, next, _, _, err := pd.WALTail(0)
	if err != nil {
		t.Fatal(err)
	}
	pd.mu.Lock()
	end := pd.repl.end
	pd.mu.Unlock()
	if next != end {
		t.Fatalf("bootstrap next offset %d, want live end %d", next, end)
	}
	if applied, err := fd.ApplyWALStream(boot); err != nil || applied == 0 {
		t.Fatalf("bootstrap apply: applied %d, err %v", applied, err)
	}
	psum, fsum := pd.Summary(), fd.Summary()
	if psum.Generation != fsum.Generation || psum.Consumed != fsum.Consumed {
		t.Fatalf("bootstrap state: gen %d/%d consumed %g/%g",
			psum.Generation, fsum.Generation, psum.Consumed, fsum.Consumed)
	}
	pSize, pRoot, _ := pd.AuditState()
	fSize, fRoot, _ := fd.AuditState()
	if pSize != fSize || pRoot != fRoot {
		t.Fatalf("bootstrap ledger: size %d/%d root %x/%x", pSize, fSize, pRoot, fRoot)
	}
	w := mat.HierarchicalRanges(64, 2)
	pres, err := pd.Query(w)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fd.Query(w)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(pres.Answers, fres.Answers) || !bitsEqual(pres.Stderr, fres.Stderr) {
		t.Fatal("bootstrapped follower answers differ from primary")
	}

	// Idempotent: re-applying the same bootstrap changes nothing (the
	// generation guard, absolute budget, and ledger-prefix checks all
	// see a caught-up replica).
	if applied, err := fd.ApplyWALStream(boot); err != nil || applied != 0 {
		t.Fatalf("bootstrap re-apply: applied %d, err %v", applied, err)
	}
	if got := fd.Summary(); got.Generation != psum.Generation || got.Consumed != psum.Consumed {
		t.Fatalf("re-apply moved state: gen %d consumed %g", got.Generation, got.Consumed)
	}
}

// TestApplyMirrorFailureStillRecordsFrame is the regression pin for
// the replication-fork bug: when a shipped measurement applies (blocks
// landed, generation advanced) but mirroring its consumed value fails
// (above this replica's eps_total), the frame must still be recorded
// on the replica's own stream and local WAL — dropping it would fork
// this replica's history from the primary's for any downstream reader.
func TestApplyMirrorFailureStillRecordsFrame(t *testing.T) {
	ps := New(Config{})
	defer ps.Close()
	pd, err := ps.CreateDatasetWithOptions("ds", "piecewise", 32, 500, 5, 1, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd.Measure("total", 1); err != nil {
		t.Fatal(err)
	}
	// Rebuild the primary's stream with the measurement's consumed
	// value inflated past the follower's budget: identity agrees
	// (eps_total 1), the blocks apply, the mirror cannot.
	data, _, _, _, err := pd.WALTail(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := wal.ScanStream(data)
	var stream []byte
	for _, rec := range recs {
		if rec.Type == wal.TypeMeasurementBlock {
			var m walMeas
			if err := json.Unmarshal(rec.Payload, &m); err != nil {
				t.Fatal(err)
			}
			m.Consumed = 5
			payload, err := json.Marshal(&m)
			if err != nil {
				t.Fatal(err)
			}
			stream = wal.AppendFrame(stream, rec.Type, payload)
		}
		if rec.Type == wal.TypeDatasetCreate {
			stream = wal.AppendFrame(stream, rec.Type, rec.Payload)
		}
		// The primary's audit frames are dropped: the rewritten record
		// hashes to a different leaf, so the original checkpoint root
		// would (correctly) refuse to match.
	}

	dir := t.TempDir()
	fs := New(Config{StateDir: dir})
	defer fs.Close()
	fd, err := fs.CreateFollower("ds", 32, 1, 5, SolverNormal, 0, "http://p")
	if err != nil {
		t.Fatal(err)
	}
	applied, err := fd.ApplyWALStream(stream)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("mirror failure: applied %d, err %v (want budget error)", applied, err)
	}
	if got := fd.Summary().Generation; got != 1 {
		t.Fatalf("generation %d after mirror failure, want 1 (blocks landed)", got)
	}

	// The frame is on the replica's own replication stream...
	own, _, _, _, err := fd.WALTail(0)
	if err != nil {
		t.Fatal(err)
	}
	if !streamHasMeas(t, own, 5) {
		t.Fatal("applied frame missing from the replica's replication stream")
	}
	// ...and in its local WAL on disk.
	logBytes, err := os.ReadFile(walFilePath(dir, "ds"))
	if err != nil {
		t.Fatal(err)
	}
	logRecs, _ := wal.Scan(logBytes)
	found := false
	for _, rec := range logRecs {
		if rec.Type != wal.TypeMeasurementBlock {
			continue
		}
		var m walMeas
		if err := json.Unmarshal(rec.Payload, &m); err != nil {
			t.Fatal(err)
		}
		if m.Gen == 1 && m.Consumed == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("applied frame missing from the replica's local WAL")
	}
}

// streamHasMeas reports whether a frame stream carries a measurement
// record with the given consumed value.
func streamHasMeas(t *testing.T, stream []byte, consumed float64) bool {
	t.Helper()
	recs, _ := wal.ScanStream(stream)
	for _, rec := range recs {
		if rec.Type != wal.TypeMeasurementBlock {
			continue
		}
		var m walMeas
		if err := json.Unmarshal(rec.Payload, &m); err != nil {
			t.Fatal(err)
		}
		if m.Consumed == consumed {
			return true
		}
	}
	return false
}

// TestReplEpochUnpredictable: stream epochs come from crypto/rand, so
// back-to-back dataset creations (or a clock stepped backwards across
// a restart) cannot repeat an epoch and trick a follower into keeping
// a dead cursor. Kept cheap: distinctness and nonzero over many draws.
func TestReplEpochUnpredictable(t *testing.T) {
	seen := make(map[uint64]bool, 1000)
	for i := 0; i < 1000; i++ {
		e := newReplEpoch()
		if e == 0 {
			t.Fatal("zero epoch")
		}
		if seen[e] {
			t.Fatalf("epoch %d repeated within 1000 draws", e)
		}
		seen[e] = true
	}
}

// TestAuditStatusSurfacesDivergence: an in-band audit checkpoint whose
// root does not match the replica's independently rebuilt ledger
// latches the sticky replication error and surfaces it (with the audit
// head) in /v1/status.
func TestAuditStatusSurfacesDivergence(t *testing.T) {
	ps := New(Config{})
	defer ps.Close()
	pd, err := ps.CreateDatasetWithOptions("ds", "piecewise", 32, 500, 7, 4, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd.Measure("total", 1); err != nil {
		t.Fatal(err)
	}

	fs := New(Config{})
	defer fs.Close()
	ts := httptest.NewServer(fs.Handler())
	defer ts.Close()
	fd, err := fs.CreateFollower("ds", 32, 4, 7, SolverNormal, 0, "http://p")
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, pd, fd)
	pSize, pRoot, _ := pd.AuditState()
	fSize, fRoot, _ := fd.AuditState()
	if pSize != fSize || pRoot != fRoot {
		t.Fatalf("converged ledgers differ: size %d/%d root %x/%x", pSize, fSize, pRoot, fRoot)
	}
	var st Status
	if code := getJSON(t, ts.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if row := st.Datasets[0]; row.ReplicationError != "" || row.AuditRoot != audit.FormatHash(fRoot) {
		t.Fatalf("healthy replica row: err %q root %q", row.ReplicationError, row.AuditRoot)
	}

	// A forged checkpoint frame (right size, wrong root) is divergence:
	// the apply fails and the error latches into status.
	forged, err := json.Marshal(&walAuditCkpt{Size: fSize, Root: strings.Repeat("ab", 32)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.ApplyWALStream(wal.AppendFrame(nil, wal.TypeAuditCheckpoint, forged)); err == nil {
		t.Fatal("forged audit checkpoint applied cleanly")
	}
	if code := getJSON(t, ts.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if row := st.Datasets[0]; !strings.Contains(row.ReplicationError, "audit") {
		t.Fatalf("replication_error = %q, want audit divergence", row.ReplicationError)
	}
}
