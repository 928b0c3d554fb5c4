package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core/plans"
	"repro/internal/mat"
	"repro/internal/wal"
)

// shipAll copies the primary dataset's full replication stream into
// the follower, returning the number of applied records.
func shipAll(t *testing.T, primary, follower *Dataset) int {
	t.Helper()
	data, _, _, _, err := primary.WALTail(0)
	if err != nil {
		t.Fatalf("WALTail: %v", err)
	}
	applied, err := follower.ApplyWALStream(data)
	if err != nil {
		t.Fatalf("ApplyWALStream: %v", err)
	}
	return applied
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFollowerBitIdenticalAtEqualGeneration is the tentpole pin: a
// replica that has applied the primary's stream up to generation G
// answers every workload bit-identically (values AND stderr) to the
// primary at G. Bootstrap noise is drawn per block in log order from
// the shared seed, so it agrees across processes on every solver; the
// log repeats a strategy, so the iterative solver's replica has folded
// a group exactly as the primary did.
func TestFollowerBitIdenticalAtEqualGeneration(t *testing.T) {
	for _, solverName := range []string{SolverNormal, SolverLSMR} {
		t.Run(solverName, func(t *testing.T) { followerBitIdentical(t, solverName) })
	}
}

func followerBitIdentical(t *testing.T, solverName string) {
	ps := New(Config{BatchWindow: 100 * time.Microsecond})
	defer ps.Close()
	fs := New(Config{BatchWindow: 100 * time.Microsecond})
	defer fs.Close()

	const seed = uint64(42)
	pd, err := ps.CreateDatasetWithOptions("census", "piecewise", 128, 5000, seed, 10, solverName, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := fs.CreateFollower("census", 128, 10, seed, solverName, 0, "http://primary.example")
	if err != nil {
		t.Fatal(err)
	}
	bootSessions := fd.Summary().Sessions // the kernel's own boot session

	if _, err := pd.Measure("hb", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := pd.MeasurePlan("DAWA", 1, plans.Params{}); err != nil {
		t.Fatal(err)
	}
	if _, err := pd.Measure("hb", 0.5); err != nil {
		t.Fatal(err)
	}

	if applied := shipAll(t, pd, fd); applied == 0 {
		t.Fatal("nothing applied")
	}
	psum, fsum := pd.Summary(), fd.Summary()
	if psum.Generation != fsum.Generation {
		t.Fatalf("generation: primary %d, follower %d", psum.Generation, fsum.Generation)
	}
	if psum.MeasuredRows != fsum.MeasuredRows || psum.Measurements != fsum.Measurements {
		t.Fatalf("log shape: primary %d/%d rows/blocks, follower %d/%d",
			psum.MeasuredRows, psum.Measurements, fsum.MeasuredRows, fsum.Measurements)
	}
	// Budget accounting mirrored, never spent: the consumed value
	// matches, but the follower has run zero kernel sessions.
	if psum.Consumed != fsum.Consumed {
		t.Fatalf("consumed: primary %g, follower %g", psum.Consumed, fsum.Consumed)
	}
	if fsum.Sessions != bootSessions {
		t.Fatalf("replication ran %d kernel sessions on the follower (boot %d)", fsum.Sessions, bootSessions)
	}
	if psum.Sessions <= bootSessions {
		t.Fatalf("primary sessions %d not above boot %d", psum.Sessions, bootSessions)
	}

	workloads := [][]mat.Range1D{
		{{Lo: 0, Hi: 127}},
		{{Lo: 3, Hi: 17}, {Lo: 64, Hi: 90}, {Lo: 0, Hi: 0}},
		mat.HierarchicalRanges(128, 2),
	}
	for wi, w := range workloads {
		pres, err := pd.Query(w)
		if err != nil {
			t.Fatalf("workload %d: primary query: %v", wi, err)
		}
		fres, err := fd.Query(w)
		if err != nil {
			t.Fatalf("workload %d: follower query: %v", wi, err)
		}
		if !bitsEqual(pres.Answers, fres.Answers) {
			t.Fatalf("workload %d: answers differ:\nprimary  %v\nfollower %v", wi, pres.Answers, fres.Answers)
		}
		if !bitsEqual(pres.Stderr, fres.Stderr) {
			t.Fatalf("workload %d: stderr differ:\nprimary  %v\nfollower %v", wi, pres.Stderr, fres.Stderr)
		}
	}

	// Re-applying the same stream is a no-op (generation guard + absolute
	// budget), which is what makes epoch resets and re-tails safe.
	if applied := shipAll(t, pd, fd); applied != 0 {
		t.Fatalf("re-apply changed state: %d records applied", applied)
	}
	if got := fd.Summary(); got.Generation != psum.Generation || got.Consumed != psum.Consumed {
		t.Fatalf("re-apply moved state: gen %d consumed %g", got.Generation, got.Consumed)
	}
}

// TestFollowerResyncRenoisesFromLogStart: a replica that had already
// refreshed — and so drawn bootstrap noise — when a bootstrap frame
// replaced its log must end on the primary's standard errors: the
// replaced log is noised again from the start of the seeded stream, as
// on a process that had only ever seen the bootstrap.
func TestFollowerResyncRenoisesFromLogStart(t *testing.T) {
	for _, solverName := range []string{SolverNormal, SolverLSMR} {
		t.Run(solverName, func(t *testing.T) {
			// Two retained frames: every WALTail(0) is a regenerated bootstrap.
			ps := New(Config{BatchWindow: 100 * time.Microsecond, ReplRetain: 2})
			defer ps.Close()
			fs := New(Config{BatchWindow: 100 * time.Microsecond})
			defer fs.Close()
			pd, err := ps.CreateDatasetWithOptions("ds", "piecewise", 64, 2000, 9, 50, solverName, 0)
			if err != nil {
				t.Fatal(err)
			}
			fd, err := fs.CreateFollower("ds", 64, 50, 9, solverName, 0, "http://primary.example")
			if err != nil {
				t.Fatal(err)
			}
			w := mat.HierarchicalRanges(64, 2)
			if _, err := pd.Measure("h2", 1); err != nil {
				t.Fatal(err)
			}
			shipAll(t, pd, fd)
			if _, err := fd.Query(w); err != nil {
				t.Fatal(err)
			}
			for _, strategy := range []string{"h2", "identity"} {
				if _, err := pd.Measure(strategy, 0.5); err != nil {
					t.Fatal(err)
				}
			}
			shipAll(t, pd, fd)
			pres, err := pd.Query(w)
			if err != nil {
				t.Fatal(err)
			}
			fres, err := fd.Query(w)
			if err != nil {
				t.Fatal(err)
			}
			if solverName == SolverNormal {
				if !bitsEqual(pres.Answers, fres.Answers) || !bitsEqual(pres.Stderr, fres.Stderr) {
					t.Fatal("resynced follower differs from the primary")
				}
				return
			}
			// The follower's solve started from its generation-1 panel, the
			// primary's from zero: equal to solver tolerance.
			for i := range pres.Answers {
				if d := math.Abs(fres.Answers[i] - pres.Answers[i]); d > 1e-6*(1+math.Abs(pres.Answers[i])) {
					t.Fatalf("answer %d: follower %v, primary %v", i, fres.Answers[i], pres.Answers[i])
				}
				if d := math.Abs(fres.Stderr[i] - pres.Stderr[i]); d > 1e-6*(1+math.Abs(pres.Stderr[i])) {
					t.Fatalf("stderr %d: follower %v, primary %v", i, fres.Stderr[i], pres.Stderr[i])
				}
			}
		})
	}
}

// TestFollowerRefusesWrites pins the budget-safety construction: every
// write path fails with ErrNotPrimary (carrying the primary address)
// before any kernel session exists.
func TestFollowerRefusesWrites(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	fd, err := s.CreateFollower("ds", 64, 5, 1, SolverNormal, 0, "http://primary:8199")
	if err != nil {
		t.Fatal(err)
	}
	bootSessions := fd.Summary().Sessions
	if _, err := fd.Measure("hb", 1); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("Measure: got %v, want ErrNotPrimary", err)
	}
	var np *NotPrimaryError
	if _, err := fd.MeasurePlan("DAWA", 1, plans.Params{}); !errors.As(err, &np) {
		t.Fatalf("MeasurePlan: got %v, want NotPrimaryError", err)
	} else if np.Primary != "http://primary:8199" {
		t.Fatalf("NotPrimaryError.Primary = %q", np.Primary)
	}
	if got := fd.Summary().Sessions; got != bootSessions {
		t.Fatalf("refused writes still created kernel sessions: %d -> %d", bootSessions, got)
	}
}

// TestFollowerHTTP421 pins the HTTP mapping: a write against a replica
// answers 421 Misdirected Request with the primary in X-Ektelo-Primary.
func TestFollowerHTTP421(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, err := s.CreateFollower("ds", 64, 5, 1, SolverNormal, 0, "http://primary:8199"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/datasets/ds/measure", "application/json",
		bytes.NewReader([]byte(`{"strategy":"hb","eps":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("status %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderPrimary); got != "http://primary:8199" {
		t.Fatalf("%s = %q", HeaderPrimary, got)
	}
}

// TestFollowerWALTailEndpoint drives the tail endpoint over HTTP: the
// stream arrives as verbatim frames with epoch/next headers, a caught-up
// tail is empty, and an out-of-range offset answers 416.
func TestFollowerWALTailEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	defer ts.Close()
	defer s.Close()
	if _, err := s.CreateDatasetWithOptions("ds", "piecewise", 64, 1000, 3, 8, SolverNormal, 0); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Dataset("ds")
	if _, err := d.Measure("h2", 1); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/datasets/ds/wal?from=0")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	next, err := strconv.ParseInt(resp.Header.Get(HeaderWALNext), 10, 64)
	if err != nil || next != int64(len(data)) {
		t.Fatalf("%s = %q, body %d bytes", HeaderWALNext, resp.Header.Get(HeaderWALNext), len(data))
	}
	if resp.Header.Get(HeaderWALEpoch) == "" || resp.Header.Get(HeaderGeneration) != "1" {
		t.Fatalf("headers: epoch %q, gen %q", resp.Header.Get(HeaderWALEpoch), resp.Header.Get(HeaderGeneration))
	}

	// A second server applies the shipped bytes and answers at the same
	// generation.
	fs := New(Config{})
	defer fs.Close()
	fd, err := fs.CreateFollower("ds", 64, 8, 3, SolverNormal, 0, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.ApplyWALStream(data); err != nil {
		t.Fatal(err)
	}
	if got := fd.Summary().Generation; got != 1 {
		t.Fatalf("follower generation %d, want 1", got)
	}

	// Caught up: empty tail at the advertised offset.
	resp, err = http.Get(fmt.Sprintf("%s/v1/datasets/ds/wal?from=%d", ts.URL, next))
	if err != nil {
		t.Fatal(err)
	}
	tail, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(tail) != 0 {
		t.Fatalf("caught-up tail: status %d, %d bytes", resp.StatusCode, len(tail))
	}

	// Out of range (a stale epoch's offset): 416 with the real end.
	resp, err = http.Get(fmt.Sprintf("%s/v1/datasets/ds/wal?from=%d", ts.URL, next+999))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("out-of-range status %d, want 416", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderWALNext); got != strconv.FormatInt(next, 10) {
		t.Fatalf("416 %s = %q, want %d", HeaderWALNext, got, next)
	}
}

// TestFollowerLocalLogRestart: a persistent follower appends applied
// frames to its own WAL, so a restart restores the replica locally and
// a re-tail from offset zero is a no-op.
func TestFollowerLocalLogRestart(t *testing.T) {
	ps := New(Config{})
	defer ps.Close()
	pd, err := ps.CreateDatasetWithOptions("ds", "piecewise", 64, 1000, 9, 8, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd.Measure("hb", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := pd.Measure("total", 0.5); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fs1 := New(Config{StateDir: dir})
	fd1, err := fs1.CreateFollower("ds", 64, 8, 9, SolverNormal, 0, "http://primary.example")
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, pd, fd1)
	want := fd1.Summary()
	fs1.Close()

	fs2 := New(Config{StateDir: dir})
	defer fs2.Close()
	fd2, err := fs2.CreateFollower("ds", 64, 8, 9, SolverNormal, 0, "http://primary.example")
	if err != nil {
		t.Fatal(err)
	}
	got := fd2.Summary()
	if got.Generation != want.Generation || got.Consumed != want.Consumed || got.MeasuredRows != want.MeasuredRows {
		t.Fatalf("restart state: gen %d/%d, consumed %g/%g, rows %d/%d",
			got.Generation, want.Generation, got.Consumed, want.Consumed, got.MeasuredRows, want.MeasuredRows)
	}
	// Epoch reset path: re-applying the primary's whole stream after the
	// restart changes nothing.
	if applied := shipAll(t, pd, fd2); applied != 0 {
		t.Fatalf("restarted follower re-applied %d records", applied)
	}
}

// TestFollowerRejectsTamperedStream: a flipped bit anywhere in the
// shipped bytes stops application at the previous frame border.
func TestFollowerRejectsTamperedStream(t *testing.T) {
	ps := New(Config{})
	defer ps.Close()
	pd, err := ps.CreateDatasetWithOptions("ds", "piecewise", 32, 500, 5, 4, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd.Measure("identity", 1); err != nil {
		t.Fatal(err)
	}
	data, _, _, _, err := pd.WALTail(0)
	if err != nil {
		t.Fatal(err)
	}
	fs := New(Config{})
	defer fs.Close()
	fd, err := fs.CreateFollower("ds", 32, 4, 5, SolverNormal, 0, "http://p")
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), data...)
	// Flip a bit inside the measurement frame's payload (located by its
	// generation field — the stream now ends with an audit-checkpoint
	// frame, so "the last bytes" would miss the measurement).
	tampered[bytes.Index(tampered, []byte(`"gen":1`))] ^= 0x40
	if _, err := fd.ApplyWALStream(tampered); err == nil {
		t.Fatal("tampered stream applied cleanly")
	}
	if got := fd.Summary().Generation; got != 0 {
		t.Fatalf("tampered frame advanced generation to %d", got)
	}
	// The intact stream still applies.
	if _, err := fd.ApplyWALStream(data); err != nil {
		t.Fatal(err)
	}
	if got := fd.Summary().Generation; got != 1 {
		t.Fatalf("generation %d after clean apply, want 1", got)
	}
}

// TestFollowerRefusesShippedMarker: a checkpoint-marker frame on the
// replication stream is refused like any unknown record, and moves
// neither the follower's generation nor its consumed budget.
func TestFollowerRefusesShippedMarker(t *testing.T) {
	ps := New(Config{})
	defer ps.Close()
	pd, err := ps.CreateDatasetWithOptions("ds", "piecewise", 32, 500, 5, 4, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd.Measure("identity", 1); err != nil {
		t.Fatal(err)
	}
	data, _, _, _, err := pd.WALTail(0)
	if err != nil {
		t.Fatal(err)
	}
	fs := New(Config{})
	defer fs.Close()
	fd, err := fs.CreateFollower("ds", 32, 4, 5, SolverNormal, 0, "http://p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.ApplyWALStream(data); err != nil {
		t.Fatal(err)
	}
	before := fd.Summary()
	marker := wal.AppendFrame(nil, wal.TypeCheckpointMarker, []byte(`{"gen":2,"consumed":3}`))
	applied, err := fd.ApplyWALStream(marker)
	if err == nil || !strings.Contains(err.Error(), "unknown record type 4") || applied != 0 {
		t.Fatalf("shipped marker: applied %d, err %v; want a refusal of record type 4", applied, err)
	}
	if after := fd.Summary(); after.Generation != before.Generation || after.Consumed != before.Consumed {
		t.Fatalf("refused marker moved the follower: generation %d -> %d, consumed %v -> %v",
			before.Generation, after.Generation, before.Consumed, after.Consumed)
	}
}

// TestServeNNLSSolver: the "nnls" solver option yields non-negative
// estimates end to end, solves every generation from a cold start (a
// warm-started FISTA needs more iterations than a cold one), and
// rejects damping (no damped FISTA form).
func TestServeNNLSSolver(t *testing.T) {
	s := New(Config{BatchWindow: 100 * time.Microsecond})
	defer s.Close()
	d, err := s.CreateDatasetWithOptions("counts", "piecewise", 128, 50, 11, 10, SolverNNLS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("identity", 0.2); err != nil { // noisy enough for negatives
		t.Fatal(err)
	}
	res, err := d.Query([]mat.Range1D{{Lo: 0, Hi: 127}, {Lo: 5, Hi: 5}, {Lo: 60, Hi: 70}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Answers {
		if v < 0 {
			t.Fatalf("answer %d is negative: %g", i, v)
		}
	}
	// Point queries are sums of non-negative cells, so every single-cell
	// answer must be >= 0 where the unconstrained solvers go negative at
	// this noise level; spot-check the whole domain.
	point := make([]mat.Range1D, 128)
	for i := range point {
		point[i] = mat.Range1D{Lo: i, Hi: i}
	}
	pres, err := d.Query(point)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range pres.Answers {
		if v < 0 {
			t.Fatalf("cell %d negative: %g", i, v)
		}
	}
	// The second generation does not start from the first panel.
	if _, err := d.Measure("hb", 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Query([]mat.Range1D{{Lo: 0, Hi: 63}}); err != nil {
		t.Fatal(err)
	}
	sum := d.Summary()
	if sum.WarmRefreshes != 0 || sum.ColdRefreshes != 2 {
		t.Fatalf("refreshes warm %d cold %d, want 0 and 2", sum.WarmRefreshes, sum.ColdRefreshes)
	}
	if sum.Solver != SolverNNLS {
		t.Fatalf("solver %q", sum.Solver)
	}

	if _, err := s.CreateDatasetWithOptions("bad", "piecewise", 32, 10, 1, 5, SolverNNLS, 0.5); err == nil {
		t.Fatal("nnls with damping accepted")
	}
}

// TestStatusEndpoints: /healthz liveness and /v1/status per-dataset
// rows (the router's probe payload).
func TestStatusEndpoints(t *testing.T) {
	s, ts := newTestServer(t)
	defer ts.Close()
	defer s.Close()
	if _, err := s.CreateDatasetWithOptions("ds", "piecewise", 64, 1000, 21, 8, SolverNormal, 0); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Dataset("ds")
	if _, err := d.Measure("h2", 1); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	var st Status
	if code := getJSON(t, ts.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if len(st.Datasets) != 1 {
		t.Fatalf("%d dataset rows", len(st.Datasets))
	}
	row := st.Datasets[0]
	if row.Name != "ds" || row.Domain != 64 || row.Seed != 21 || row.Solver != SolverNormal {
		t.Fatalf("row identity: %+v", row)
	}
	if row.Generation != 1 || row.WALOffset <= 0 || row.WALEpoch == 0 {
		t.Fatalf("row stream state: gen %d, offset %d, epoch %d", row.Generation, row.WALOffset, row.WALEpoch)
	}
	if row.EpsTotal != 8 || row.Consumed != 1 {
		t.Fatalf("row budget: total %g consumed %g", row.EpsTotal, row.Consumed)
	}
	if row.Follower {
		t.Fatal("primary marked follower")
	}
}
