package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core/plans"
	"repro/internal/mat"
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

// TestPersistRejectsCorruptSnapshot covers the legacy loader's
// validation paths on real files: truncation, version skew, budget
// inconsistency and a tampered audit ledger all fail the create. The file is the frozen version 3
// fixture (legacyFixture), since nothing writes snapshots any more.
func TestPersistRejectsCorruptSnapshot(t *testing.T) {
	legacy, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(t *testing.T, mutate func([]byte) []byte) error {
		dir := t.TempDir()
		if err := os.WriteFile(snapshotPath(dir, "mig"), mutate(legacy), 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := newPersistentServer(t, dir)
		_, err := s2.CreateDataset("mig", "piecewise", 32, 5000, 3, 10)
		return err
	}
	if err := corrupt(t, func(b []byte) []byte { return b }); err != nil {
		t.Fatalf("intact fixture refused: %v", err)
	}
	if err := corrupt(t, func(b []byte) []byte { return b[:len(b)/2] }); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if err := corrupt(t, func(b []byte) []byte {
		return []byte(strings.Replace(string(b), `"version":3`, `"version":99`, 1))
	}); err == nil {
		t.Fatal("version-skewed snapshot accepted")
	}
	if err := corrupt(t, func(b []byte) []byte {
		return []byte(strings.Replace(string(b), `"consumed":2`, `"consumed":99`, 1))
	}); err == nil {
		t.Fatal("over-budget snapshot accepted")
	}
	// An edited ledger leaf no longer recomputes the snapshot's root,
	// which the translated audit checkpoint checks on replay.
	if err := corrupt(t, func(b []byte) []byte {
		return []byte(strings.Replace(string(b), `"leaves":["16c4`, `"leaves":["26c4`, 1))
	}); err == nil {
		t.Fatal("snapshot with a tampered audit leaf accepted")
	}
}

// TestCorruptSnapshotIsServerErrorOverHTTP pins the status mapping: a
// create that fails on a bad persisted snapshot is server-side state
// trouble (500), never a 400 blaming the well-formed client request.
func TestCorruptSnapshotIsServerErrorOverHTTP(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir, "mig"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newPersistentServer(t, dir)
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	status, body := postJSON(t, ts.URL+"/v1/datasets", createRequest{
		Name: "mig", Kind: "piecewise", N: 32, Scale: 5000, Seed: 3, EpsTotal: 10,
	}, nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("corrupt-snapshot create: status %d (%s), want 500", status, body)
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

// FuzzLoadSnapshot is the loader's safety fuzz target: arbitrary bytes
// must either load a fully valid snapshot or return an error — never
// panic, never hand back a partially validated log.
func FuzzLoadSnapshot(f *testing.F) {
	// Seed with the frozen version 3 snapshot, a truncation, a version
	// skew, and a few structurally interesting corruptions.
	valid, err := os.ReadFile(legacyFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add([]byte(strings.Replace(string(valid), `"version":3`, `"version":7`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"rows":33`, `"rows":-1`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"scale":`, `"scale":-`, 1)))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"name":"a","domain":4,"eps_total":1,"consumed":0,` +
		`"blocks":[{"rows":1,"cols":4,"sparse":[{"r":0,"c":9,"v":1}],"y":[0],"scale":1}]}`))
	f.Add([]byte(`{"version":1,"name":"a","domain":1073741824,"eps_total":1,"consumed":0,"blocks":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, blocks, err := loadSnapshot(data)
		if err != nil {
			if s != nil || blocks != nil {
				t.Fatalf("error %v returned with partial state", err)
			}
			return
		}
		// A successful load must be internally consistent: every block
		// matrix matches the domain and its answer count, with usable
		// metadata.
		if s.Version != snapshotVersion || s.Domain <= 0 || s.Domain > maxSnapshotDomain {
			t.Fatalf("invalid snapshot accepted: %+v", s)
		}
		if !(s.Consumed >= 0) || s.Consumed > s.EpsTotal+1e-9 {
			t.Fatalf("inconsistent budget accepted: %+v", s)
		}
		if len(blocks) != len(s.Blocks) {
			t.Fatalf("partial block decode: %d of %d", len(blocks), len(s.Blocks))
		}
		for i, b := range blocks {
			r, c := b.m.Dims()
			if c != s.Domain || r != len(b.y) || r <= 0 {
				t.Fatalf("block %d shape %dx%d with %d answers over domain %d", i, r, c, len(b.y), s.Domain)
			}
			if !(b.scale >= 0) || math.IsInf(b.scale, 0) {
				t.Fatalf("block %d scale %v", i, b.scale)
			}
		}
		// Round-trip: a loaded snapshot re-encodes and re-loads.
		re, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if _, _, err := loadSnapshot(re); err != nil {
			t.Fatalf("accepted snapshot does not re-load: %v", err)
		}
	})
}
