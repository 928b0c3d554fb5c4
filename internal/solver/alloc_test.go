package solver

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/noise"
)

// TestLSMRIterationLoopAllocFree asserts the acceptance criterion that
// the LSMR iteration loop performs zero allocations: with a warm
// workspace, total allocations per solve must not grow with the
// iteration count (the fixed per-solve cost is the returned solution
// plus the workspace bookkeeping, independent of iterations).
func TestLSMRIterationLoopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache under the race detector")
	}
	m := TreeMatrix(1<<12, 2)
	r, _ := m.Dims()
	rng := noise.NewRand(42)
	y := make([]float64, r)
	noise.LaplaceVec(rng, y, 1)
	ws := mat.NewWorkspace()
	solve := func(iters int) float64 {
		return testing.AllocsPerRun(10, func() {
			LSMR(m, y, Options{MaxIter: iters, Tol: 0, Work: ws})
		})
	}
	solve(4) // warm the workspace and the mat-layer pools
	short := solve(4)
	long := solve(64)
	if long > short {
		t.Errorf("LSMR allocations grow with iterations: %v at 4 iters vs %v at 64", short, long)
	}
}

// TestCGLSIterationLoopAllocFree is the same assertion for CGLS, which
// the selection layer calls hundreds of times per HDMM score.
func TestCGLSIterationLoopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache under the race detector")
	}
	m := TreeMatrix(1<<12, 2)
	r, _ := m.Dims()
	rng := noise.NewRand(43)
	y := make([]float64, r)
	noise.LaplaceVec(rng, y, 1)
	ws := mat.NewWorkspace()
	solve := func(iters int) float64 {
		return testing.AllocsPerRun(10, func() {
			CGLS(m, y, Options{MaxIter: iters, Tol: 0, Work: ws})
		})
	}
	solve(4)
	short := solve(4)
	long := solve(64)
	if long > short {
		t.Errorf("CGLS allocations grow with iterations: %v at 4 iters vs %v at 64", short, long)
	}
}

// TestCGLSMultiIterationLoopAllocFree asserts that the batched block
// solve allocates nothing per iteration: with a warm workspace, total
// allocations per solve must not grow with the iteration count.
func TestCGLSMultiIterationLoopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache under the race detector")
	}
	m := TreeMatrix(1<<10, 2)
	r, _ := m.Dims()
	const k = 8
	rng := noise.NewRand(45)
	y := make([]float64, r*k)
	noise.LaplaceVec(rng, y, 1)
	ws := mat.NewWorkspace()
	solve := func(iters int) float64 {
		return testing.AllocsPerRun(10, func() {
			CGLSMulti(m, y, k, Options{MaxIter: iters, Tol: 0, Work: ws})
		})
	}
	solve(4)
	short := solve(4)
	long := solve(64)
	if long > short {
		t.Errorf("CGLSMulti allocations grow with iterations: %v at 4 iters vs %v at 64", short, long)
	}
}

// TestCGLSMultiMatchesScalar pins each column of a k-column CGLS solve
// to the k = 1 solve (CGLS) of the same right-hand side: the columns run
// the same recurrence in lockstep.
func TestCGLSMultiMatchesScalar(t *testing.T) {
	m := TreeMatrix(256, 2)
	r, cols := m.Dims()
	const k = 3
	rng := noise.NewRand(46)
	y := make([]float64, r*k)
	noise.LaplaceVec(rng, y, 1)
	ws := mat.NewWorkspace()
	multi := CGLSMulti(m, y, k, Options{MaxIter: 200, Tol: 1e-10, Work: ws})
	for c := 0; c < k; c++ {
		yc := make([]float64, r)
		for i := 0; i < r; i++ {
			yc[i] = y[i*k+c]
		}
		single := CGLS(m, yc, Options{MaxIter: 200, Tol: 1e-10, Work: ws})
		for i := 0; i < cols; i++ {
			got := multi.X[i*k+c]
			want := single.X[i]
			if diff := got - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("column %d diverges at %d: %v vs %v", c, i, got, want)
			}
		}
	}
}

// TestPowerIterLAllocFree asserts the workspace-aware subspace iteration
// allocates nothing per iteration once the workspace is warm.
func TestPowerIterLAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache under the race detector")
	}
	m := TreeMatrix(1<<10, 2)
	ws := mat.NewWorkspace()
	run := func(iters int) float64 {
		return testing.AllocsPerRun(10, func() {
			PowerIterL(m, iters, ws)
		})
	}
	run(2)
	short := run(2)
	long := run(30)
	if long > short {
		t.Errorf("PowerIterL allocations grow with iterations: %v at 2 iters vs %v at 30", short, long)
	}
}

// TestPowerIterLEstimatesLambdaMax pins the subspace estimate to the
// true dominant eigenvalue on a matrix whose spectrum is known: for the
// diagonal matrix diag(1..n), λmax(AᵀA) = n².
func TestPowerIterLEstimatesLambdaMax(t *testing.T) {
	n := 64
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(i + 1)
	}
	got := PowerIterL(mat.Diag(d), 60, nil)
	want := float64(n) * float64(n)
	if got < 0.99*want || got > 1.01*want {
		t.Fatalf("PowerIterL = %v, want ~%v", got, want)
	}
}

// TestTreeLSWorkspaceAllocFree asserts TreeLS with a workspace
// allocates only the returned leaves once the workspace is warm.
func TestTreeLSWorkspaceAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache under the race detector")
	}
	n := 1 << 10
	m := TreeMatrix(n, 2)
	r, _ := m.Dims()
	rng := noise.NewRand(47)
	y := make([]float64, r)
	noise.LaplaceVec(rng, y, 1)
	ws := mat.NewWorkspace()
	TreeLS(n, 2, y, ws) // warm
	if a := testing.AllocsPerRun(10, func() { TreeLS(n, 2, y, ws) }); a > 1 {
		t.Errorf("TreeLS allocates %.1f/op, want <= 1 (the returned leaves)", a)
	}
	// Workspace-backed result must match the plain path bit for bit.
	plain := TreeLS(n, 2, y, nil)
	reused := TreeLS(n, 2, y, ws)
	for i := range plain {
		if plain[i] != reused[i] {
			t.Fatalf("TreeLS diverges at %d", i)
		}
	}
}

// TestMultWeightsWorkspaceMatches pins the workspace-backed MW update to
// the plain path and asserts the round loop allocates nothing extra per
// additional pass.
func TestMultWeightsWorkspaceMatches(t *testing.T) {
	m := TreeMatrix(64, 2)
	r, cols := m.Dims()
	rng := noise.NewRand(48)
	y := make([]float64, r)
	noise.LaplaceVec(rng, y, 1)
	xInit := make([]float64, cols)
	for i := range xInit {
		xInit[i] = 10
	}
	ws := mat.NewWorkspace()
	plain := MultWeights(m, y, xInit, 5, nil)
	reused := MultWeights(m, y, xInit, 5, ws)
	reused2 := MultWeights(m, y, xInit, 5, ws)
	for i := range plain {
		if plain[i] != reused[i] || plain[i] != reused2[i] {
			t.Fatalf("MultWeights diverges at %d", i)
		}
	}
	if raceEnabled {
		return
	}
	run := func(iters int) float64 {
		return testing.AllocsPerRun(10, func() {
			MultWeights(m, y, xInit, iters, ws)
		})
	}
	run(1)
	short := run(1)
	long := run(8)
	if long > short {
		t.Errorf("MultWeights allocations grow with passes: %v at 1 vs %v at 8", short, long)
	}
}

// TestSolversWithWorkspaceMatchNoWorkspace pins workspace-backed solves
// to the allocation-per-call behavior.
func TestSolversWithWorkspaceMatchNoWorkspace(t *testing.T) {
	m := TreeMatrix(256, 2)
	r, _ := m.Dims()
	rng := noise.NewRand(44)
	y := make([]float64, r)
	noise.LaplaceVec(rng, y, 1)
	ws := mat.NewWorkspace()
	for name, run := range map[string]func(Options) []float64{
		"LSMR": func(o Options) []float64 { return LSMR(m, y, o).X },
		"CGLS": func(o Options) []float64 { return CGLS(m, y, o).X },
		"NNLS": func(o Options) []float64 { return NNLS(m, y, nil, o) },
	} {
		plain := run(Options{MaxIter: 100, Tol: 1e-10})
		// Two workspace runs: the second reuses the first's buffers and
		// must still match the workspace-free solve bit for bit.
		run(Options{MaxIter: 100, Tol: 1e-10, Work: ws})
		reused := run(Options{MaxIter: 100, Tol: 1e-10, Work: ws})
		for i := range plain {
			if plain[i] != reused[i] {
				t.Errorf("%s: workspace-backed solve diverged at %d: %v vs %v", name, i, plain[i], reused[i])
				break
			}
		}
	}
}
