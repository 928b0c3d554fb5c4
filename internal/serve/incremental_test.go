package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/mat"
)

// incrementalWorkload is a fixed range workload reused across the
// incremental tests.
func incrementalWorkload(domain int) []mat.Range1D {
	w := make([]mat.Range1D, 16)
	for q := range w {
		lo := (q * 5) % (domain / 2)
		w[q] = mat.Range1D{Lo: lo, Hi: lo + domain/2 - 1}
	}
	return w
}

// incrementalLogRounds and incrementalCapMover shape the shared log of
// the refresh-schedule tests: h2, identity and hb in rotation at ε 0.5
// (h2, the noisiest, first, so it sets the 100× weight cap), except one
// identity block at ε 0.002 whose weight lowers the cap under the
// identity blocks before it.
const incrementalLogRounds, incrementalCapMover = 8, 5

// measureIncrementalRound commits round r (1-based) of the shared log.
func measureIncrementalRound(t *testing.T, d *Dataset, r int) {
	t.Helper()
	strategy, eps := []string{"hb", "h2", "identity"}[r%3], 0.5
	if r == incrementalCapMover {
		strategy, eps = "identity", 0.002
	}
	if _, err := d.Measure(strategy, eps); err != nil {
		t.Fatal(err)
	}
}

// createIncremental creates the seeded dataset every schedule of the
// shared log runs on.
func createIncremental(t *testing.T, cfg Config, name, solverName string) (*Server, *Dataset) {
	t.Helper()
	cfg.BatchWindow = time.Microsecond
	s := New(cfg)
	d, err := s.CreateDatasetWithOptions(name, "piecewise", 32, 1000, 19, 50, solverName, 0)
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s, d
}

// queryIncremental answers the fixed incremental workload.
func queryIncremental(t *testing.T, d *Dataset) QueryResult {
	t.Helper()
	res, err := d.Query(incrementalWorkload(32))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stderr) != len(res.Answers) {
		t.Fatalf("%d stderr for %d answers", len(res.Stderr), len(res.Answers))
	}
	return res
}

// requireBitIdentical fails unless got's answers and standard errors
// equal want's bit for bit.
func requireBitIdentical(t *testing.T, what string, got, want QueryResult) {
	t.Helper()
	if !bitsEqual(got.Answers, want.Answers) {
		t.Fatalf("%s: answers %v, want %v (not bit-identical)", what, got.Answers, want.Answers)
	}
	if !bitsEqual(got.Stderr, want.Stderr) {
		t.Fatalf("%s: stderr %v, want %v (not bit-identical)", what, got.Stderr, want.Stderr)
	}
}

// requireWithin fails unless got's answers and standard errors are
// within rel (relative, plus an absolute 1) of want's.
func requireWithin(t *testing.T, what string, got, want QueryResult, rel float64) {
	t.Helper()
	for i := range want.Answers {
		if d := math.Abs(got.Answers[i] - want.Answers[i]); d > rel*(1+math.Abs(want.Answers[i])) {
			t.Fatalf("%s: answer %d: %v vs %v", what, i, got.Answers[i], want.Answers[i])
		}
		if d := math.Abs(got.Stderr[i] - want.Stderr[i]); d > rel*(1+math.Abs(want.Stderr[i])) {
			t.Fatalf("%s: stderr %d: %v vs %v", what, i, got.Stderr[i], want.Stderr[i])
		}
	}
}

// TestIncrementalNormalWarmColdBitIdentical pins that the "normal"
// solver's answers are a function of the log: one log, with a block that
// moves the weight cap, served under three refresh schedules — every
// commit, only at the end, and across a restart — yields answers AND
// bootstrap standard errors bit-identical between all three, while the
// every-commit summary counts a refresh that extended the fold as warm
// and one that began or redid it as cold. The iterative "lsmr" case
// pins the weaker contract of warm-started solves: at every generation,
// answers and standard errors within 1e-6 relative of a cold solve of
// the same log (both sides hold the same bootstrap noise per block).
func TestIncrementalNormalWarmColdBitIdentical(t *testing.T) {
	const rounds = incrementalLogRounds
	t.Run(SolverNormal, func(t *testing.T) {
		es, every := createIncremental(t, Config{}, "inc", SolverNormal)
		defer es.Close()
		var want QueryResult
		for r := 1; r <= rounds; r++ {
			measureIncrementalRound(t, every, r)
			want = queryIncremental(t, every)
		}
		sum := every.Summary()
		if sum.ColdRefreshes != 2 || sum.WarmRefreshes != rounds-2 {
			t.Errorf("every-commit counters: cold=%d warm=%d, want 2/%d (first refresh and cap move cold)",
				sum.ColdRefreshes, sum.WarmRefreshes, rounds-2)
		}
		if sum.CoveredRows != sum.MeasuredRows || sum.PendingRows != 0 {
			t.Errorf("coverage after refresh: covered=%d pending=%d rows=%d", sum.CoveredRows, sum.PendingRows, sum.MeasuredRows)
		}

		ls, last := createIncremental(t, Config{}, "inc", SolverNormal)
		defer ls.Close()
		for r := 1; r <= rounds; r++ {
			measureIncrementalRound(t, last, r)
		}
		requireBitIdentical(t, "refreshed only at the end", queryIncremental(t, last), want)

		// Refreshed at every third commit, restarted with the last commits
		// unrefreshed, refreshed once more after the restore.
		dir := t.TempDir()
		rs, before := createIncremental(t, Config{StateDir: dir}, "inc", SolverNormal)
		for r := 1; r <= rounds; r++ {
			measureIncrementalRound(t, before, r)
			if r%3 == 0 {
				queryIncremental(t, before)
			}
		}
		rs.Close()
		rs2, after := createIncremental(t, Config{StateDir: dir}, "inc", SolverNormal)
		defer rs2.Close()
		requireBitIdentical(t, "refreshed across a restart", queryIncremental(t, after), want)
	})
	t.Run(SolverLSMR, func(t *testing.T) {
		ws, warm := createIncremental(t, Config{}, "inc", SolverLSMR)
		defer ws.Close()
		cs, cold := createIncremental(t, Config{}, "inc", SolverLSMR)
		defer cs.Close()
		for r := 1; r <= rounds; r++ {
			measureIncrementalRound(t, warm, r)
			measureIncrementalRound(t, cold, r)
			got := queryIncremental(t, warm)
			// No previous panel to warm-start from: a cold solve.
			cold.mu.Lock()
			cold.stale, cold.panel = true, nil
			cold.mu.Unlock()
			requireWithin(t, fmt.Sprintf("round %d warm vs cold", r), got, queryIncremental(t, cold), 1e-6)
		}
		if sum := warm.Summary(); sum.ColdRefreshes != 1 || sum.WarmRefreshes != rounds-1 {
			t.Errorf("warm dataset counters: cold=%d warm=%d, want 1/%d", sum.ColdRefreshes, sum.WarmRefreshes, rounds-1)
		}
		if sum := cold.Summary(); sum.ColdRefreshes != rounds || sum.WarmRefreshes != 0 {
			t.Errorf("cold dataset counters: cold=%d warm=%d, want %d/0", sum.ColdRefreshes, sum.WarmRefreshes, rounds)
		}
	})
}

// TestIncrementalNormalMatchesLSMR cross-checks the normal solver's
// answers against LSMR on the same measurement state: the direct
// normal-equation solve and the Krylov solve agree to solver tolerance.
func TestIncrementalNormalMatchesLSMR(t *testing.T) {
	const domain = 32
	mk := func(solver string) (*Server, *Dataset) {
		s := New(Config{BatchWindow: time.Microsecond})
		d, err := s.CreateDatasetWithOptions("x", "piecewise", domain, 1000, 23, 50, solver, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s, d
	}
	ns, nd := mk(SolverNormal)
	defer ns.Close()
	ls, ld := mk(SolverLSMR)
	defer ls.Close()
	for round := 0; round < 3; round++ {
		if _, err := nd.Measure("h2", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := ld.Measure("h2", 1); err != nil {
			t.Fatal(err)
		}
	}
	w := incrementalWorkload(domain)
	nres, err := nd.Query(w)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := ld.Query(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nres.Answers {
		if d := math.Abs(nres.Answers[i] - lres.Answers[i]); d > 1e-6*(1+math.Abs(lres.Answers[i])) {
			t.Fatalf("answer %d: normal %v vs lsmr %v", i, nres.Answers[i], lres.Answers[i])
		}
	}
}

// TestIncrementalWeightChangeFallsBackCold pins the refold rule: when a
// new block's noise scale moves the inverse-noise weight cap applied to
// already-folded blocks, the normal equations cannot be extended and the
// refresh must refold from the first block (a cold refresh).
func TestIncrementalWeightChangeFallsBackCold(t *testing.T) {
	s := New(Config{BatchWindow: time.Microsecond})
	defer s.Close()
	const domain = 16
	d, err := s.CreateDatasetWithOptions("w", "piecewise", domain, 1000, 31, 50, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := incrementalWorkload(domain)
	// Round 1: a cheap-noise block (large weight).
	if _, err := d.Measure("identity", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Query(w); err != nil {
		t.Fatal(err)
	}
	// Round 2: a very noisy block. Its tiny weight drags the 100× weight
	// cap below block 1's old weight, so the folded prefix re-weights
	// and the Gram/RHS state is unsound to extend.
	if _, err := d.Measure("identity", 0.0001); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Query(w); err != nil {
		t.Fatal(err)
	}
	sum := d.Summary()
	if sum.ColdRefreshes != 2 || sum.WarmRefreshes != 0 {
		t.Errorf("counters after weight-cap change: cold=%d warm=%d, want 2/0", sum.ColdRefreshes, sum.WarmRefreshes)
	}
	// Round 3: same scale again — the weights are stable now, so the
	// incremental path resumes.
	if _, err := d.Measure("identity", 0.0001); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Query(w); err != nil {
		t.Fatal(err)
	}
	if sum := d.Summary(); sum.WarmRefreshes != 1 {
		t.Errorf("stable-weight refresh not warm: %+v", sum)
	}
}

// TestIncrementalNormalRestartBitIdentical checks the restart story on
// the normal solver: the Gram/RHS cache is not persisted, so the first
// refresh after a restore rebuilds cold — and because each block's
// bootstrap noise is a deterministic chunk of the seeded stream drawn
// in log order, the restarted server's answers AND standard errors are
// bit-identical to the uninterrupted one's.
func TestIncrementalNormalRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	const domain = 32
	w := incrementalWorkload(domain)

	mk := func() (*Server, *Dataset) {
		s := New(Config{BatchWindow: time.Microsecond, StateDir: dir})
		d, err := s.CreateDatasetWithOptions("r", "piecewise", domain, 1000, 37, 50, SolverNormal, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s, d
	}
	s1, d1 := mk()
	for round := 0; round < 3; round++ {
		if _, err := d1.Measure("h2", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := d1.Query(w); err != nil {
			t.Fatal(err)
		}
	}
	want, err := d1.Query(w)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, d2 := mk()
	defer s2.Close()
	got, err := d2.Query(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Answers {
		if got.Answers[i] != want.Answers[i] {
			t.Fatalf("answer %d diverges across restart: %v vs %v (not bit-identical)", i, got.Answers[i], want.Answers[i])
		}
	}
	for i := range want.Stderr {
		if got.Stderr[i] != want.Stderr[i] {
			t.Fatalf("stderr %d diverges across restart: %v vs %v (not bit-identical)", i, got.Stderr[i], want.Stderr[i])
		}
	}
	if sum := d2.Summary(); sum.ColdRefreshes != 1 {
		t.Errorf("post-restore refresh not cold: %+v", sum)
	}
}

// TestIncrementalIterativeRestartWarmStart checks the snapshot-v2 panel
// on an iterative solver: a restarted dataset warm-starts its first
// solve from the persisted previous-generation panel and redraws each
// block's bootstrap noise from the start of the seeded stream in log
// order, so the restarted answers and standard errors equal the
// uninterrupted server's bit for bit.
func TestIncrementalIterativeRestartWarmStart(t *testing.T) {
	dir := t.TempDir()
	const domain = 32
	w := incrementalWorkload(domain)

	mk := func() (*Server, *Dataset) {
		s := New(Config{BatchWindow: time.Microsecond, StateDir: dir})
		d, err := s.CreateDatasetWithOptions("it", "piecewise", domain, 1000, 41, 50, SolverLSMR, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s, d
	}
	s1, d1 := mk()
	// measure → query → measure: the second commit persists the panel
	// the first query solved, one generation behind the log.
	if _, err := d1.Measure("h2", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Query(w); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Measure("identity", 1); err != nil {
		t.Fatal(err)
	}
	want, err := d1.Query(w)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, d2 := mk()
	defer s2.Close()
	got, err := d2.Query(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Answers {
		if got.Answers[i] != want.Answers[i] {
			t.Fatalf("answer %d diverges across restart: %v vs %v (not bit-identical)", i, got.Answers[i], want.Answers[i])
		}
		if got.Stderr[i] != want.Stderr[i] {
			t.Fatalf("stderr %d diverges across restart: %v vs %v (not bit-identical)", i, got.Stderr[i], want.Stderr[i])
		}
	}
	sum := d2.Summary()
	if sum.WarmRefreshes != 1 || sum.ColdRefreshes != 0 {
		t.Errorf("restored panel did not warm-start the solve: cold=%d warm=%d", sum.ColdRefreshes, sum.WarmRefreshes)
	}
}

// TestIncrementalDampingValidation pins the damping surface: λ is
// accepted at create time only by the solvers that implement it, and is
// reported in the summary.
func TestIncrementalDampingValidation(t *testing.T) {
	s := New(Config{BatchWindow: time.Microsecond})
	defer s.Close()
	if _, err := s.CreateDatasetWithOptions("bad", "piecewise", 16, 1000, 3, 10, SolverCGLS, 0.5); err == nil {
		t.Fatal("cgls dataset with damping accepted")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := s.CreateDatasetWithOptions("bad", "piecewise", 16, 1000, 3, 10, SolverLSMR, bad); err == nil {
			t.Fatalf("damping %v accepted", bad)
		}
	}
	d, err := s.CreateDatasetWithOptions("damped", "piecewise", 16, 1000, 3, 10, SolverLSMR, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Summary().Damping; got != 0.5 {
		t.Fatalf("summary damping %v, want 0.5", got)
	}
	// A damped estimate stays finite and answerable.
	if _, err := d.Measure("identity", 1); err != nil {
		t.Fatal(err)
	}
	res, err := d.Query(incrementalWorkload(16))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Answers {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite damped answer %v", v)
		}
	}
}

// TestIncrementalConcurrentMeasureQuery races measurements, queries,
// summaries and explicit refreshes against each other on a normal-mode
// dataset — the new incremental state (cached Gram/RHS, counters,
// per-block bootstrap noise) must hold up under -race.
func TestIncrementalConcurrentMeasureQuery(t *testing.T) {
	s := New(Config{BatchWindow: time.Microsecond})
	defer s.Close()
	const domain = 16
	d, err := s.CreateDatasetWithOptions("c", "piecewise", domain, 1000, 43, 200, SolverNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Measure("identity", 1); err != nil {
		t.Fatal(err)
	}
	w := incrementalWorkload(domain)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch g % 3 {
				case 0:
					if _, err := d.Measure("identity", 0.5); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if err := d.Refresh(); err != nil {
						t.Error(err)
						return
					}
					d.Summary()
				default:
					if _, err := d.Query(w); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
