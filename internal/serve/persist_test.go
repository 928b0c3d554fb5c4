package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core/plans"
	"repro/internal/mat"
	"repro/internal/wal"
)

// newPersistentServer returns a server persisting under dir.
// CheckpointEvery: 1 compacts the WAL after every commit, so the
// compaction path gets constant exercise.
func newPersistentServer(t *testing.T, dir string) *Server {
	t.Helper()
	s := New(Config{BatchWindow: 100 * time.Microsecond, StateDir: dir, CheckpointEvery: 1})
	t.Cleanup(s.Close)
	return s
}

// TestPersistRestartWarm is the restart acceptance check: a dataset
// measured through both the fixed-strategy and the plan path, killed,
// and re-created from its compacted log must answer the same workload
// bit-identically and refuse to re-grant the spent budget.
func TestPersistRestartWarm(t *testing.T) {
	dir := t.TempDir()
	wl := []mat.Range1D{{Lo: 0, Hi: 63}, {Lo: 7, Hi: 21}}

	s1 := newPersistentServer(t, dir)
	d1, err := s1.CreateDataset("warm", "piecewise", 64, 20000, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Measure("hb", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.MeasurePlan("DAWA", 1, plans.Params{}); err != nil {
		t.Fatal(err)
	}
	// A refresh between commits, then a repeat of the first strategy at
	// another ε: the restart must rebuild a folded group and redraw two
	// refreshes' worth of bootstrap noise as one.
	if _, err := d1.Query(wl); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Measure("hb", 0.5); err != nil {
		t.Fatal(err)
	}
	before, err := d1.Query(wl)
	if err != nil {
		t.Fatal(err)
	}
	sumBefore := d1.Summary()
	s1.Close()

	// "Restart": a fresh server over the same state dir re-creates the
	// dataset and must come up warm.
	s2 := newPersistentServer(t, dir)
	d2, err := s2.CreateDataset("warm", "piecewise", 64, 20000, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	sumAfter := d2.Summary()
	if sumAfter.Measurements != sumBefore.Measurements || sumAfter.MeasuredRows != sumBefore.MeasuredRows {
		t.Fatalf("restart lost log: %+v vs %+v", sumAfter, sumBefore)
	}
	if math.Abs(sumAfter.Consumed-sumBefore.Consumed) > 1e-12 {
		t.Fatalf("restart changed spent budget: %v vs %v", sumAfter.Consumed, sumBefore.Consumed)
	}
	if sumAfter.Generation != sumBefore.Generation {
		t.Fatalf("restart changed generation: %d vs %d", sumAfter.Generation, sumBefore.Generation)
	}
	after, err := d2.Query(wl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Answers {
		if after.Answers[i] != before.Answers[i] {
			t.Fatalf("restart moved answer %d: %v -> %v", i, before.Answers[i], after.Answers[i])
		}
		if after.Stderr[i] != before.Stderr[i] {
			t.Fatalf("restart moved stderr %d: %v -> %v", i, before.Stderr[i], after.Stderr[i])
		}
	}
	// The restored budget is enforced: only the unspent 6.5 remain.
	if _, err := d2.Measure("identity", 8); err == nil {
		t.Fatal("restart re-granted spent budget")
	}
	if _, err := d2.Measure("identity", 6); err != nil {
		t.Fatalf("legitimate spend after restart failed: %v", err)
	}
}

// TestPersistFailedPlanSpend is the partial-failure durability
// regression: a plan that overdrafts mid-run charges its completed
// operators' budget, and that spend must survive a restart even though
// no measurements landed — otherwise the restarted kernel re-grants it.
func TestPersistFailedPlanSpend(t *testing.T) {
	dir := t.TempDir()
	s1 := newPersistentServer(t, dir)
	// AHP spends ρ·ε = 1 on partition selection before the measurement
	// stage overdrafts the 1.5 total.
	d1, err := s1.CreateDataset("fail", "piecewise", 32, 1000, 7, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.MeasurePlan("AHP", 2, plans.Params{}); err == nil {
		t.Fatal("overdrafting plan did not fail")
	}
	spent := d1.Summary().Consumed
	if !(spent > 0.99 && spent < 1.01) {
		t.Fatalf("partial spend %v, want ~1", spent)
	}
	s1.Close()

	s2 := newPersistentServer(t, dir)
	d2, err := s2.CreateDataset("fail", "piecewise", 32, 1000, 7, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Summary().Consumed; math.Abs(got-spent) > 1e-12 {
		t.Fatalf("restart re-granted failed-plan spend: consumed %v, want %v", got, spent)
	}
	if _, err := d2.Measure("identity", 1); err == nil {
		t.Fatal("restarted kernel granted more than the remaining 0.5")
	}
}

// TestCanonicalMatrixPassThrough pins the hot-path contract: matrices
// already in canonical form are committed as-is (no materialization),
// and implicit matrices convert via chunked extraction to the same
// values the dense reference gives.
func TestCanonicalMatrixPassThrough(t *testing.T) {
	sp := mat.NewSparse(2, 4, []mat.Triplet{{Row: 0, Col: 1, Val: 2}, {Row: 1, Col: 3, Val: -1}})
	if canonicalMatrix(sp) != mat.Matrix(sp) {
		t.Fatal("CSR block was rebuilt instead of passed through")
	}
	de := mat.NewDense(2, 2, []float64{1, 2, 3, 4})
	if canonicalMatrix(de) != mat.Matrix(de) {
		t.Fatal("dense block was rebuilt instead of passed through")
	}
	// Implicit types: chunked conversion must agree with Materialize,
	// including across a chunk boundary (rows > canonPanel).
	for _, m := range []mat.Matrix{mat.Identity(100), mat.Prefix(70), mat.Suffix(5)} {
		got := canonicalMatrix(m)
		rows, cols := m.Dims()
		gr, gc := got.Dims()
		if gr != rows || gc != cols {
			t.Fatalf("canonical dims %dx%d, want %dx%d", gr, gc, rows, cols)
		}
		want := mat.Materialize(m)
		gotD := mat.Materialize(got)
		for i := 0; i < rows*cols; i++ {
			if gotD.Data()[i] != want.Data()[i] {
				t.Fatalf("canonical form disagrees with reference at %d", i)
			}
		}
	}
	if _, isSparse := canonicalMatrix(mat.Identity(100)).(*mat.Sparse); !isSparse {
		t.Fatal("identity not canonicalized to CSR")
	}
	if _, isDense := canonicalMatrix(mat.Prefix(70)).(*mat.Dense); !isDense {
		t.Fatal("prefix (lower-triangular, dense-majority) not canonicalized to Dense")
	}
}

// TestPersistRejectsMismatchedIdentity: a snapshot for a different
// domain or budget must fail the create, not silently drop history.
func TestPersistRejectsMismatchedIdentity(t *testing.T) {
	dir := t.TempDir()
	s1 := newPersistentServer(t, dir)
	d, err := s1.CreateDataset("id", "piecewise", 32, 1000, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("identity", 1); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2 := newPersistentServer(t, dir)
	if _, err := s2.CreateDataset("id", "piecewise", 64, 1000, 3, 5); err == nil {
		t.Fatal("domain mismatch accepted")
	}
	if _, err := s2.CreateDataset("id", "piecewise", 32, 1000, 3, 9); err == nil {
		t.Fatal("budget mismatch accepted")
	}
	if _, err := s2.CreateDataset("id", "piecewise", 32, 1000, 3, 5); err != nil {
		t.Fatalf("matching identity rejected: %v", err)
	}
}

// TestLegacySnapshotRefused: a state directory still holding the state
// file older versions kept beside the log fails the create with
// ErrSnapshot, naming the file, and leaves it untouched with no log
// opened beside it. Loading the directory without the file's state would
// re-grant the budget it records as spent.
func TestLegacySnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	legacy := []byte(`{"version":3,"name":"mig","consumed":2}`)
	if err := os.WriteFile(legacySnapshotPath(dir, "mig"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newPersistentServer(t, dir)
	_, err := s.CreateDataset("mig", "piecewise", 32, 5000, 3, 10)
	if !errors.Is(err, ErrSnapshot) || !strings.Contains(err.Error(), "mig.snapshot.json") {
		t.Fatalf("create over a legacy snapshot: %v, want ErrSnapshot naming the file", err)
	}
	if got, err := os.ReadFile(legacySnapshotPath(dir, "mig")); err != nil || !bytes.Equal(got, legacy) {
		t.Fatalf("legacy snapshot changed by the refused create: %q (%v)", got, err)
	}
	if _, err := os.Stat(walFilePath(dir, "mig")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused create opened a log: %v", err)
	}
}

// TestCheckpointMarkerLogRefused: a log holding a checkpoint marker (the
// head older versions wrote over a separate state file) fails the create
// with its bytes unchanged, wherever the marker sits; the same log
// without the marker loads.
func TestCheckpointMarkerLogRefused(t *testing.T) {
	create, err := json.Marshal(&walCreate{Name: "mk", Domain: 32, EpsTotal: 10})
	if err != nil {
		t.Fatal(err)
	}
	frame := func(typ wal.Type, payload string) []byte { return wal.AppendFrame(nil, typ, []byte(payload)) }
	createF := frame(wal.TypeDatasetCreate, string(create))
	marker := frame(wal.TypeCheckpointMarker, `{"gen":1,"consumed":2}`)
	budget := frame(wal.TypeBudgetRestore, `{"consumed":3}`)
	image := func(frames ...[]byte) []byte { return bytes.Join(append([][]byte{[]byte(wal.Magic)}, frames...), nil) }
	for name, data := range map[string][]byte{
		"create+marker+budget": image(createF, marker, budget),
		"marker+budget":        image(marker, budget),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(walFilePath(dir, "mk"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			s := newPersistentServer(t, dir)
			_, err := s.CreateDataset("mk", "piecewise", 32, 5000, 3, 10)
			if !errors.Is(err, ErrSnapshot) || !strings.Contains(err.Error(), "unknown record type 4") {
				t.Fatalf("create over a marker log: %v, want ErrSnapshot for record type 4", err)
			}
			if got, err := os.ReadFile(walFilePath(dir, "mk")); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("marker log changed by the refused create (%d bytes, was %d): %v", len(got), len(data), err)
			}
		})
	}
	dir := t.TempDir()
	if err := os.WriteFile(walFilePath(dir, "mk"), image(createF, budget), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := newPersistentServer(t, dir).CreateDataset("mk", "piecewise", 32, 5000, 3, 10)
	if err != nil || d.Summary().Consumed != 3 {
		t.Fatalf("the log without its marker: %v", err)
	}
}

// TestCorruptSnapshotIsServerErrorOverHTTP pins the status mapping: a
// create refused over persisted state is server-side state trouble
// (500), never a 400 blaming the well-formed client request.
func TestCorruptSnapshotIsServerErrorOverHTTP(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(legacySnapshotPath(dir, "mig"), []byte(`{"version":3,`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newPersistentServer(t, dir)
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	status, body := postJSON(t, ts.URL+"/v1/datasets", createRequest{
		Name: "mig", Kind: "piecewise", N: 32, Scale: 5000, Seed: 3, EpsTotal: 10,
	}, nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("legacy-snapshot create: status %d (%s), want 500", status, body)
	}
}

// TestSnapshotRoundTripBlocks round-trips dense and sparse blocks
// through encode/decode and checks the rebuilt matrices act identically.
func TestSnapshotRoundTripBlocks(t *testing.T) {
	n := 16
	blocks := []measBlock{
		{m: mat.Identity(n), y: seq(n), scale: 0.5},              // sparse route
		{m: mat.Materialize(mat.Prefix(n)), y: seq(n), scale: 2}, // dense route (lower triangular, > 1/3 nnz)
	}
	for i, b := range blocks {
		enc := encodeBlock(b)
		dec, err := decodeBlock(i, enc, n)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		x := seq(n)
		want := mat.Mul(b.m, x)
		got := mat.Mul(dec.m, x)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("block %d: decoded matrix disagrees at %d: %v vs %v", i, j, got[j], want[j])
			}
		}
		if dec.scale != b.scale || len(dec.y) != len(b.y) {
			t.Fatalf("block %d: metadata lost: %+v", i, dec)
		}
	}
	if encodeBlock(blocks[0]).Sparse == nil {
		t.Fatal("identity block not stored sparsely")
	}
	if encodeBlock(blocks[1]).Dense == nil {
		t.Fatal("prefix block not stored densely")
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}
