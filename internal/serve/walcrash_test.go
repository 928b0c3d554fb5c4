package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/core/plans"
	"repro/internal/mat"
	"repro/internal/wal"
)

// crashWorkload is the range workload every recovery in this file is
// answered against; bitwise answer equality is the recovery bar.
var crashWorkload = []mat.Range1D{{Lo: 0, Hi: 31}, {Lo: 3, Hi: 17}, {Lo: 11, Hi: 11}}

// restoreFromWAL stands a fresh server on a directory holding only the
// given WAL bytes and re-creates the dataset — the recovery path a
// crashed process takes on restart.
func restoreFromWAL(t *testing.T, walBytes []byte) *Dataset {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(walFilePath(dir, "crash"), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{BatchWindow: 100 * time.Microsecond, StateDir: dir})
	t.Cleanup(s.Close)
	d, err := s.CreateDataset("crash", "piecewise", 32, 5000, 3, 10)
	if err != nil {
		t.Fatalf("recovery refused a clean-prefix log: %v", err)
	}
	return d
}

// crashRef is the reference state recovered from a log cut exactly at a
// record boundary.
type crashRef struct {
	sum     Summary
	answers []float64
}

// TestWALCrashMatrix builds a WAL through real commits (fixed-strategy,
// plan-mode, and a failed plan's partial spend), then simulates a crash
// at every record boundary, at mid-frame offsets inside every record,
// and inside the file header. Each recovery must load exactly the
// longest clean prefix: bitwise-identical query answers to a reference
// restore from the boundary-truncated log, budget consumed exactly the
// prefix's (never re-granted), and never an error or panic.
func TestWALCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{BatchWindow: 100 * time.Microsecond, StateDir: dir})
	d1, err := s1.CreateDataset("crash", "piecewise", 32, 5000, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Measure("identity", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Measure("hb", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.MeasurePlan("DAWA", 1, plans.Params{}); err != nil {
		t.Fatal(err)
	}
	// AHP charges ρ·ε on partition selection before the measurement stage
	// overdrafts the remaining budget: a budget-restore record.
	if _, err := d1.MeasurePlan("AHP", 9, plans.Params{}); err == nil {
		t.Fatal("overdrafting plan did not fail")
	}
	liveSum := d1.Summary()
	live, err := d1.Query(crashWorkload)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	data, err := os.ReadFile(walFilePath(dir, "crash"))
	if err != nil {
		t.Fatal(err)
	}
	recs, clean := wal.Scan(data)
	if clean != len(data) {
		t.Fatalf("live log not fully clean: %d of %d bytes", clean, len(data))
	}
	// create + 3 measurement commits + 1 budget restore, each commit
	// followed by its audit-checkpoint record.
	if len(recs) != 9 {
		t.Fatalf("log has %d records, want 9", len(recs))
	}
	// boundary[k] is the byte offset after the k-th record.
	boundary := []int{len(wal.Magic)}
	for _, r := range recs {
		boundary = append(boundary, boundary[len(boundary)-1]+len(wal.AppendFrame(nil, r.Type, r.Payload)))
	}

	// Reference restores: one per clean record-boundary prefix.
	refs := make([]crashRef, len(boundary))
	for k, b := range boundary {
		d := restoreFromWAL(t, data[:b])
		refs[k].sum = d.Summary()
		res, err := d.Query(crashWorkload)
		if err != nil && !errors.Is(err, ErrNoMeasurements) {
			t.Fatalf("prefix %d: query: %v", k, err)
		}
		refs[k].answers = res.Answers
		if k > 0 && refs[k].sum.Consumed < refs[k-1].sum.Consumed {
			t.Fatalf("prefix %d re-granted budget: consumed %v < %v",
				k, refs[k].sum.Consumed, refs[k-1].sum.Consumed)
		}
	}
	full := refs[len(refs)-1]
	if math.Abs(full.sum.Consumed-liveSum.Consumed) > 0 {
		t.Fatalf("full-log recovery consumed %v, live %v", full.sum.Consumed, liveSum.Consumed)
	}
	if full.sum.Generation != liveSum.Generation || full.sum.MeasuredRows != liveSum.MeasuredRows {
		t.Fatalf("full-log recovery state %+v, live %+v", full.sum, liveSum)
	}
	for i := range live.Answers {
		if full.answers[i] != live.Answers[i] {
			t.Fatalf("full-log recovery moved answer %d: %v -> %v", i, live.Answers[i], full.answers[i])
		}
	}

	check := func(t *testing.T, cut []byte, want crashRef) {
		t.Helper()
		d := restoreFromWAL(t, cut)
		sum := d.Summary()
		if sum.Consumed != want.sum.Consumed {
			t.Fatalf("consumed %v, want %v", sum.Consumed, want.sum.Consumed)
		}
		if sum.Generation != want.sum.Generation || sum.MeasuredRows != want.sum.MeasuredRows {
			t.Fatalf("state %+v, want %+v", sum, want.sum)
		}
		res, err := d.Query(crashWorkload)
		if err != nil {
			if errors.Is(err, ErrNoMeasurements) && want.answers == nil {
				return
			}
			t.Fatal(err)
		}
		for i := range want.answers {
			if res.Answers[i] != want.answers[i] {
				t.Fatalf("answer %d: %v, want %v", i, res.Answers[i], want.answers[i])
			}
		}
	}

	// A crash inside the header loses the whole log: recovery is a fresh
	// dataset (prefix 0), not a refused create.
	t.Run("torn-header", func(t *testing.T) {
		for _, c := range []int{0, 1, len(wal.Magic) - 1} {
			check(t, data[:c], refs[0])
		}
	})
	// A crash mid-frame in record k leaves exactly the k-record prefix.
	t.Run("mid-frame", func(t *testing.T) {
		for k := 0; k < len(recs); k++ {
			lo, hi := boundary[k], boundary[k+1]
			for _, c := range []int{lo + 1, lo + (hi-lo)/2, hi - 1} {
				check(t, data[:c], refs[k])
			}
		}
	})
	// A flipped byte anywhere in record k fails its CRC: recovery
	// truncates at k and loads the k-record prefix. In the header it
	// loses the log. Never an error, never a partial record.
	t.Run("bit-flip", func(t *testing.T) {
		for p := 0; p < len(data); p += 13 {
			mut := append([]byte(nil), data...)
			mut[p] ^= 0xa5
			k := 0
			for k < len(recs) && boundary[k+1] <= p {
				k++
			}
			if p < len(wal.Magic) {
				k = 0
			}
			check(t, mut, refs[k])
		}
	})
}

// TestWALReadOnlyDegradation pins the graceful-degradation contract: a
// failed WAL append keeps the in-flight commit (its budget is spent;
// failing the request would invite a retried double spend), flips the
// dataset to read-only, refuses further writes with ErrReadOnly (503
// over HTTP) before any budget is charged, and keeps answering queries
// from the warm panel. A restart on healthy disk recovers the durable
// prefix.
func TestWALReadOnlyDegradation(t *testing.T) {
	dir := t.TempDir()
	fault := wal.NewFaultFS(nil)
	s := New(Config{BatchWindow: 100 * time.Microsecond, StateDir: dir, FS: fault})
	d, err := s.CreateDataset("ro", "piecewise", 32, 5000, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("identity", 1); err != nil {
		t.Fatal(err)
	}

	fault.FailWrites(wal.ErrInjected)
	// The commit whose append fails still lands in memory...
	if _, err := d.Measure("identity", 1); err != nil {
		t.Fatalf("append-failure commit returned error: %v", err)
	}
	sum := d.Summary()
	if !sum.ReadOnly || sum.PersistError == "" {
		t.Fatalf("dataset did not degrade: %+v", sum)
	}
	if math.Abs(sum.Consumed-2) > 1e-12 {
		t.Fatalf("consumed %v after degraded commit, want 2", sum.Consumed)
	}
	// ...but the next write is refused before spending anything.
	if _, err := d.Measure("identity", 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("measure on read-only dataset: %v, want ErrReadOnly", err)
	}
	if _, err := d.MeasurePlan("DAWA", 1, plans.Params{}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("plan on read-only dataset: %v, want ErrReadOnly", err)
	}
	if got := d.Summary().Consumed; math.Abs(got-2) > 1e-12 {
		t.Fatalf("refused writes charged budget: consumed %v", got)
	}
	// Queries keep serving — and see the degraded commit, which IS
	// committed in memory even though it never became durable.
	after, err := d.Query(crashWorkload)
	if err != nil {
		t.Fatalf("query on read-only dataset: %v", err)
	}
	if len(after.Answers) != len(crashWorkload) {
		t.Fatalf("read-only query returned %d answers", len(after.Answers))
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, body := postJSON(t, ts.URL+"/v1/datasets/ro/measure", measureRequest{Strategy: "identity", Eps: 1}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("read-only measure over HTTP: %d (%s), want 503", status, body)
	}
	status, _ = postJSON(t, ts.URL+"/v1/datasets/ro/query", queryRequest{Ranges: [][2]int{{0, 31}}}, nil)
	if status != http.StatusOK {
		t.Fatalf("read-only query over HTTP: %d, want 200", status)
	}
	s.Close()

	// Restart on healthy disk: only the durable first commit survives.
	s2 := New(Config{BatchWindow: 100 * time.Microsecond, StateDir: dir})
	defer s2.Close()
	d2, err := s2.CreateDataset("ro", "piecewise", 32, 5000, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	sum2 := d2.Summary()
	if sum2.ReadOnly {
		t.Fatal("read-only state leaked across restart")
	}
	if math.Abs(sum2.Consumed-1) > 1e-12 || sum2.Measurements != 1 {
		t.Fatalf("restart recovered %+v, want the 1-commit durable prefix", sum2)
	}
	if _, err := d2.Measure("identity", 1); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestWALCompactionRestart runs enough commits to trigger compaction
// mid-stream, then restarts: the recovered state (compacted head + log
// tail) must answer bitwise-identically with the exact budget.
func TestWALCompactionRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{BatchWindow: 100 * time.Microsecond, StateDir: dir, CheckpointEvery: 2})
	d1, err := s1.CreateDataset("ck", "piecewise", 32, 5000, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"identity", "hb", "identity"} {
		if _, err := d1.Measure(m, 1); err != nil {
			t.Fatal(err)
		}
	}
	before, err := d1.Query(crashWorkload)
	if err != nil {
		t.Fatal(err)
	}
	sumBefore := d1.Summary()
	s1.Close()

	// Compaction ran at the second commit: no snapshot file, and the
	// live log opens with the bootstrap head — create, audit state, one
	// Full measurement, audit checkpoint — before the third commit.
	if _, err := os.Stat(legacySnapshotPath(dir, "ck")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("compaction wrote a snapshot file: %v", err)
	}
	data, err := os.ReadFile(walFilePath(dir, "ck"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := wal.Scan(data)
	head := []wal.Type{wal.TypeDatasetCreate, wal.TypeAuditState, wal.TypeMeasurementBlock, wal.TypeAuditCheckpoint}
	if len(recs) < len(head) {
		t.Fatalf("compacted log holds %d records: %+v", len(recs), recs)
	}
	for i, typ := range head {
		if recs[i].Type != typ {
			t.Fatalf("compacted log record %d has type %d, want %d", i, recs[i].Type, typ)
		}
	}
	var full walMeas
	if err := json.Unmarshal(recs[2].Payload, &full); err != nil || !full.Full || full.Gen != 2 {
		t.Fatalf("compacted head's measurement is not the Full record at generation 2: %+v (%v)", full, err)
	}

	s2 := New(Config{BatchWindow: 100 * time.Microsecond, StateDir: dir, CheckpointEvery: 2})
	defer s2.Close()
	d2, err := s2.CreateDataset("ck", "piecewise", 32, 5000, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	sumAfter := d2.Summary()
	if sumAfter.Consumed != sumBefore.Consumed || sumAfter.Generation != sumBefore.Generation ||
		sumAfter.MeasuredRows != sumBefore.MeasuredRows {
		t.Fatalf("compacted restart state %+v, want %+v", sumAfter, sumBefore)
	}
	after, err := d2.Query(crashWorkload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Answers {
		if after.Answers[i] != before.Answers[i] {
			t.Fatalf("compacted restart moved answer %d: %v -> %v", i, before.Answers[i], after.Answers[i])
		}
	}
}
