package serve

import (
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

// TestIncrementalNormalWarmColdBitIdentical is the tentpole acceptance
// pin: on the "normal" solver, a dataset refreshed incrementally
// (rank-k Gram/RHS updates over each appended generation) must serve
// answers AND bootstrap standard errors bit-identical to an identically
// seeded dataset forced to rebuild cold every round — at every
// generation — while its summary counts the warm refreshes. The
// iterative "lsmr" case pins the weaker contract of warm-started
// solves: answers and standard errors within 1e-6 relative of the cold
// rebuild (both sides hold the same bootstrap noise per block).
func TestIncrementalNormalWarmColdBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		solver  string
		bitwise bool
	}{{SolverNormal, true}, {SolverLSMR, false}} {
		t.Run(tc.solver, func(t *testing.T) {
			warmSrv := New(Config{BatchWindow: time.Microsecond})
			defer warmSrv.Close()
			coldSrv := New(Config{BatchWindow: time.Microsecond, ColdRefresh: true})
			defer coldSrv.Close()
			const domain, rounds = 32, 8
			wd, err := warmSrv.CreateDatasetWithOptions("inc", "piecewise", domain, 1000, 19, 50, tc.solver, 0)
			if err != nil {
				t.Fatal(err)
			}
			cd, err := coldSrv.CreateDatasetWithOptions("inc", "piecewise", domain, 1000, 19, 50, tc.solver, 0)
			if err != nil {
				t.Fatal(err)
			}
			w := incrementalWorkload(domain)
			for round := 1; round <= rounds; round++ {
				if _, err := wd.Measure("h2", 0.5); err != nil {
					t.Fatal(err)
				}
				if _, err := cd.Measure("h2", 0.5); err != nil {
					t.Fatal(err)
				}
				wres, err := wd.Query(w)
				if err != nil {
					t.Fatal(err)
				}
				cres, err := cd.Query(w)
				if err != nil {
					t.Fatal(err)
				}
				if len(wres.Stderr) != len(cres.Stderr) || len(wres.Stderr) == 0 {
					t.Fatalf("round %d: stderr shape mismatch", round)
				}
				if !tc.bitwise {
					for i := range cres.Answers {
						if d := math.Abs(wres.Answers[i] - cres.Answers[i]); d > 1e-6*(1+math.Abs(cres.Answers[i])) {
							t.Fatalf("round %d: answer %d: warm %v vs cold %v", round, i, wres.Answers[i], cres.Answers[i])
						}
						if d := math.Abs(wres.Stderr[i] - cres.Stderr[i]); d > 1e-6*(1+math.Abs(cres.Stderr[i])) {
							t.Fatalf("round %d: stderr %d: warm %v vs cold %v", round, i, wres.Stderr[i], cres.Stderr[i])
						}
					}
					continue
				}
				for i := range cres.Answers {
					if wres.Answers[i] != cres.Answers[i] {
						t.Fatalf("round %d: answer %d diverges: %v vs %v (not bit-identical)",
							round, i, wres.Answers[i], cres.Answers[i])
					}
				}
				for i := range cres.Stderr {
					if wres.Stderr[i] != cres.Stderr[i] {
						t.Fatalf("round %d: stderr %d diverges: %v vs %v (not bit-identical)",
							round, i, wres.Stderr[i], cres.Stderr[i])
					}
				}
			}
			wsum, csum := wd.Summary(), cd.Summary()
			if wsum.ColdRefreshes != 1 || wsum.WarmRefreshes != rounds-1 {
				t.Errorf("warm dataset counters: cold=%d warm=%d, want 1/%d", wsum.ColdRefreshes, wsum.WarmRefreshes, rounds-1)
			}
			if csum.ColdRefreshes != rounds || csum.WarmRefreshes != 0 {
				t.Errorf("cold dataset counters: cold=%d warm=%d, want %d/0", csum.ColdRefreshes, csum.WarmRefreshes, rounds)
			}
			if wsum.CoveredRows != wsum.MeasuredRows || wsum.PendingRows != 0 {
				t.Errorf("coverage after refresh: covered=%d pending=%d rows=%d", wsum.CoveredRows, wsum.PendingRows, wsum.MeasuredRows)
			}
		})
	}
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

// TestIncrementalWeightChangeFallsBackCold pins the soundness fallback:
// when a new block's noise scale moves the inverse-noise weight cap
// applied to already-covered blocks, the cached normal state cannot be
// extended and the refresh must rebuild cold.
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
	// cap below block 1's old weight, so the covered prefix re-weights
	// and the cached Gram/RHS state is unsound to extend.
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
// accepted only by the solvers that implement it, at create time and on
// solver switches, and is reported in the summary.
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
	if err := d.SetSolver(SolverCGLS); err == nil {
		t.Fatal("switch of a damped dataset to cgls accepted")
	}
	if err := d.SetSolver(SolverNormal); err != nil {
		t.Fatalf("switch of a damped dataset to normal rejected: %v", err)
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
