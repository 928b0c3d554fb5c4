package solver

import (
	"math/rand/v2"
	"testing"

	"repro/internal/mat"
	"repro/internal/noise"
	"repro/internal/vec"
)

// randSparse builds a random CSR matrix with a few entries per row.
func randSparse(rng *rand.Rand, r, c int) *mat.Sparse {
	var tri []mat.Triplet
	for i := 0; i < r; i++ {
		for q := 0; q < 3; q++ {
			tri = append(tri, mat.Triplet{Row: i, Col: rng.IntN(c), Val: rng.Float64()*4 - 2})
		}
	}
	return mat.NewSparse(r, c, tri)
}

// extractCol pulls column c out of a rows×k row-major panel.
func extractCol(panel []float64, k, c int) []float64 {
	out := make([]float64, len(panel)/k)
	for i := range out {
		out[i] = panel[i*k+c]
	}
	return out
}

// TestLSMRMultiMatchesScalarBitIdentical pins a k-column panel to k
// separate k = 1 solves: on the serial Dense and CSR kernels (whose
// panel accumulation order equals the MatVec order), every column of
// the panel solve must equal LSMR on the same right-hand side to the
// last bit, even though the columns converge at different iterations
// and latch one by one.
func TestLSMRMultiMatchesScalarBitIdentical(t *testing.T) {
	defer mat.SetParallelism(0)
	mat.SetParallelism(1)
	rng := rand.New(rand.NewPCG(81, 83))
	const k = 5
	cases := map[string]mat.Matrix{
		"dense":  randDense(rng, 41, 17),
		"sparse": randSparse(rng, 60, 23),
	}
	for name, m := range cases {
		rows, cols := m.Dims()
		y := make([]float64, rows*k)
		noise.LaplaceVec(noise.NewRand(91), y, 1)
		// Scale the columns so their convergence points spread out and the
		// per-column latches actually engage at different iterations.
		for i := 0; i < rows; i++ {
			for c := 0; c < k; c++ {
				y[i*k+c] *= float64(c + 1)
			}
		}
		ws := mat.NewWorkspace()
		opts := Options{MaxIter: 400, Tol: 1e-10, Work: ws}
		multi := LSMRMulti(m, y, k, opts)
		if !multi.Converged {
			t.Fatalf("%s: block solve did not converge", name)
		}
		for c := 0; c < k; c++ {
			single := LSMR(m, extractCol(y, k, c), opts)
			for i := 0; i < cols; i++ {
				if got, want := multi.X[i*k+c], single.X[i]; got != want {
					t.Fatalf("%s: column %d diverges at %d: %v vs %v (not bit-identical)",
						name, c, i, got, want)
				}
			}
		}
	}
}

// TestLSMRMultiMatchesScalarAllTypes cross-checks the panel solve
// against per-column k = 1 solves on every structured matrix shape the
// serve and experiments layers feed it (randomized right-hand sides).
// Combinator kernels may reassociate across the panel, so the comparison
// is to solver tolerance rather than bitwise.
func TestLSMRMultiMatchesScalarAllTypes(t *testing.T) {
	rng := rand.New(rand.NewPCG(87, 89))
	cases := map[string]mat.Matrix{
		"tree":      TreeMatrix(128, 2),
		"ranges":    mat.RangeQueries(96, mat.HierarchicalRanges(96, 4)),
		"kron":      mat.Kron(mat.Prefix(8), mat.Prefix(12)),
		"vstack":    mat.VStack(mat.Identity(48), mat.Total(48), mat.Prefix(48)),
		"wavelet":   mat.Wavelet(64),
		"rowscaled": mat.RowScaled(vec.Ones(33), randDense(rng, 33, 15)),
	}
	const k = 4
	for name, m := range cases {
		rows, cols := m.Dims()
		y := make([]float64, rows*k)
		noise.LaplaceVec(noise.NewRand(101), y, 2)
		ws := mat.NewWorkspace()
		opts := Options{MaxIter: 600, Tol: 1e-11, Work: ws}
		multi := LSMRMulti(m, y, k, opts)
		for c := 0; c < k; c++ {
			single := LSMR(m, extractCol(y, k, c), opts)
			got := extractCol(multi.X, k, c)
			if !vec.AllClose(got, single.X, 1e-7, 1e-7) {
				t.Errorf("%s: column %d differs from scalar LSMR: %v vs %v",
					name, c, got[:min(4, cols)], single.X[:min(4, cols)])
			}
		}
	}
}

// TestLSMRMultiZeroAndMixedColumns pins the degenerate cases: a zero
// right-hand side column converges instantly to zero without disturbing
// its neighbors.
func TestLSMRMultiZeroAndMixedColumns(t *testing.T) {
	m := TreeMatrix(64, 2)
	rows, cols := m.Dims()
	const k = 3
	y := make([]float64, rows*k)
	noise.LaplaceVec(noise.NewRand(7), y, 1)
	for i := 0; i < rows; i++ {
		y[i*k+1] = 0 // middle column: zero rhs
	}
	res := LSMRMulti(m, y, k, Options{MaxIter: 300, Tol: 1e-10})
	if !res.Converged {
		t.Fatal("mixed panel did not converge")
	}
	for i := 0; i < cols; i++ {
		if res.X[i*k+1] != 0 {
			t.Fatalf("zero column picked up mass at %d: %v", i, res.X[i*k+1])
		}
	}
	for c := 0; c < k; c += 2 {
		single := LSMR(m, extractCol(y, k, c), Options{MaxIter: 300, Tol: 1e-10})
		if !vec.AllClose(extractCol(res.X, k, c), single.X, 1e-8, 1e-8) {
			t.Fatalf("column %d disturbed by the zero neighbor", c)
		}
	}
}

// TestLSMRMultiIterationLoopAllocFree asserts the acceptance criterion:
// with a warm workspace the block LSMR iteration loop performs zero
// allocations (total allocations per solve must not grow with the
// iteration count).
func TestLSMRMultiIterationLoopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache under the race detector")
	}
	m := TreeMatrix(1<<10, 2)
	r, _ := m.Dims()
	const k = 8
	rng := noise.NewRand(49)
	y := make([]float64, r*k)
	noise.LaplaceVec(rng, y, 1)
	ws := mat.NewWorkspace()
	solve := func(iters int) float64 {
		return testing.AllocsPerRun(10, func() {
			LSMRMulti(m, y, k, Options{MaxIter: iters, Tol: 0, Work: ws})
		})
	}
	solve(4)
	short := solve(4)
	long := solve(64)
	if long > short {
		t.Errorf("LSMRMulti allocations grow with iterations: %v at 4 iters vs %v at 64", short, long)
	}
}

// TestNNLSMultiMatchesScalarBitIdentical pins each column of a k-column
// NNLS solve to the k = 1 solve (NNLS) of its right-hand side on the
// serial Dense and CSR kernels — bitwise, like the LSMR pin, including
// the weighted path.
func TestNNLSMultiMatchesScalarBitIdentical(t *testing.T) {
	defer mat.SetParallelism(0)
	mat.SetParallelism(1)
	rng := rand.New(rand.NewPCG(93, 95))
	const k = 4
	cases := map[string]mat.Matrix{
		"dense":  randDense(rng, 37, 13),
		"sparse": randSparse(rng, 50, 19),
	}
	for name, m := range cases {
		rows, _ := m.Dims()
		y := make([]float64, rows*k)
		noise.LaplaceVec(noise.NewRand(103), y, 1)
		weights := make([]float64, rows)
		for i := range weights {
			weights[i] = 0.5 + rng.Float64()
		}
		for _, w := range [][]float64{nil, weights} {
			ws := mat.NewWorkspace()
			opts := Options{MaxIter: 250, Tol: 1e-9, Work: ws}
			multi := NNLSMulti(m, y, k, w, opts)
			for c := 0; c < k; c++ {
				single := NNLS(m, extractCol(y, k, c), w, opts)
				got := extractCol(multi.X, k, c)
				for i := range single {
					if got[i] != single[i] {
						t.Fatalf("%s (weights=%v): column %d diverges at %d: %v vs %v",
							name, w != nil, c, i, got[i], single[i])
					}
				}
			}
		}
	}
}

// TestNNLSMultiMatchesScalarAllTypes cross-checks a k-column NNLS solve
// against per-column k = 1 solves on structured matrices to solver
// tolerance, and asserts nonnegativity of every column.
func TestNNLSMultiMatchesScalarAllTypes(t *testing.T) {
	cases := map[string]mat.Matrix{
		"tree":   TreeMatrix(64, 2),
		"ranges": mat.RangeQueries(48, mat.HierarchicalRanges(48, 2)),
		"kron":   mat.Kron(mat.Prefix(6), mat.Prefix(8)),
	}
	const k = 3
	for name, m := range cases {
		rows, _ := m.Dims()
		y := make([]float64, rows*k)
		noise.LaplaceVec(noise.NewRand(107), y, 3)
		ws := mat.NewWorkspace()
		opts := Options{MaxIter: 400, Tol: 1e-9, Work: ws}
		multi := NNLSMulti(m, y, k, nil, opts)
		for _, v := range multi.X {
			if v < 0 {
				t.Fatalf("%s: negative entry %v in NNLS solution", name, v)
			}
		}
		for c := 0; c < k; c++ {
			single := NNLS(m, extractCol(y, k, c), nil, opts)
			if !vec.AllClose(extractCol(multi.X, k, c), single, 1e-6, 1e-6) {
				t.Errorf("%s: column %d differs from scalar NNLS", name, c)
			}
		}
	}
}

// TestNNLSMultiIterationLoopAllocFree asserts the batched NNLS iteration
// loop allocates nothing with a warm workspace.
func TestNNLSMultiIterationLoopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache under the race detector")
	}
	m := TreeMatrix(1<<9, 2)
	r, _ := m.Dims()
	const k = 6
	y := make([]float64, r*k)
	noise.LaplaceVec(noise.NewRand(53), y, 1)
	ws := mat.NewWorkspace()
	solve := func(iters int) float64 {
		return testing.AllocsPerRun(10, func() {
			NNLSMulti(m, y, k, nil, Options{MaxIter: iters, Tol: 0, Work: ws})
		})
	}
	solve(4)
	short := solve(4)
	long := solve(64)
	if long > short {
		t.Errorf("NNLSMulti allocations grow with iterations: %v at 4 iters vs %v at 64", short, long)
	}
}
