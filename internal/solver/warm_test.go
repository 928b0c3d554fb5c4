package solver

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/mat"
	"repro/internal/noise"
	"repro/internal/vec"
)

// randX0Panel builds a mixed-sign cols×k warm-start panel.
func randX0Panel(rng *rand.Rand, cols, k int) []float64 {
	x0 := make([]float64, cols*k)
	for i := range x0 {
		x0[i] = rng.Float64()*6 - 3
	}
	return x0
}

// TestMultiWarmStartMatchesScalarBitIdentical pins the warm-start
// contract on the serial Dense and CSR kernels: a panel solve seeded
// with an X0 panel must equal, column for column and bit for bit, the
// k = 1 solve seeded with that column of X0 — for all three solvers
// (NNLS exercising the non-negative clamp on a mixed-sign X0).
func TestMultiWarmStartMatchesScalarBitIdentical(t *testing.T) {
	defer mat.SetParallelism(0)
	mat.SetParallelism(1)
	rng := rand.New(rand.NewPCG(111, 113))
	const k = 4
	cases := map[string]mat.Matrix{
		"dense":  randDense(rng, 39, 16),
		"sparse": randSparse(rng, 55, 21),
	}
	for name, m := range cases {
		rows, cols := m.Dims()
		y := make([]float64, rows*k)
		noise.LaplaceVec(noise.NewRand(117), y, 1)
		x0 := randX0Panel(rng, cols, k)
		ws := mat.NewWorkspace()
		opts := Options{MaxIter: 400, Tol: 1e-10, Work: ws, X0: x0}
		solves := map[string]struct {
			multi  func() Result
			scalar func(c int) []float64
		}{
			"cgls": {
				func() Result { return CGLSMulti(m, y, k, opts) },
				func(c int) []float64 {
					o := opts
					o.X0 = extractCol(x0, k, c)
					return CGLS(m, extractCol(y, k, c), o).X
				},
			},
			"lsmr": {
				func() Result { return LSMRMulti(m, y, k, opts) },
				func(c int) []float64 {
					o := opts
					o.X0 = extractCol(x0, k, c)
					return LSMR(m, extractCol(y, k, c), o).X
				},
			},
			"nnls": {
				func() Result { return NNLSMulti(m, y, k, nil, opts) },
				func(c int) []float64 {
					o := opts
					o.X0 = extractCol(x0, k, c)
					return NNLS(m, extractCol(y, k, c), nil, o)
				},
			},
		}
		for sname, s := range solves {
			multi := s.multi()
			for c := 0; c < k; c++ {
				single := s.scalar(c)
				for i := 0; i < cols; i++ {
					if got, want := multi.X[i*k+c], single[i]; got != want {
						t.Fatalf("%s/%s: warm column %d diverges at %d: %v vs %v (not bit-identical)",
							name, sname, c, i, got, want)
					}
				}
			}
		}
	}
}

// TestMultiWarmStartAtOptimumZeroIterations pins the best case of the
// warm-start contract (mirroring the k = 1 LSMR pin): when X0 already
// solves the system exactly, every Multi solver must detect the zero
// residual, run zero iterations, and return X0 unchanged bit for bit.
func TestMultiWarmStartAtOptimumZeroIterations(t *testing.T) {
	defer mat.SetParallelism(0)
	mat.SetParallelism(1)
	rng := rand.New(rand.NewPCG(121, 123))
	const k = 3
	cases := map[string]mat.Matrix{
		"dense":  randDense(rng, 30, 12),
		"sparse": randSparse(rng, 44, 15),
	}
	for name, m := range cases {
		rows, cols := m.Dims()
		// Non-negative xTrue so the same panel is an exact NNLS optimum.
		xTrue := make([]float64, cols*k)
		for i := range xTrue {
			xTrue[i] = rng.Float64() * 3
		}
		// Exact rhs panel: residual at X0 = xTrue is identically zero.
		y := make([]float64, rows*k)
		mat.MatMat(m, y, xTrue, k)
		ws := mat.NewWorkspace()
		opts := Options{MaxIter: 200, Tol: 1e-10, Work: ws, X0: xTrue}
		solves := map[string]func() Result{
			"cgls": func() Result { return CGLSMulti(m, y, k, opts) },
			"lsmr": func() Result { return LSMRMulti(m, y, k, opts) },
			"nnls": func() Result { return NNLSMulti(m, y, k, nil, opts) },
		}
		for sname, solve := range solves {
			res := solve()
			if !res.Converged {
				t.Fatalf("%s/%s: converged X0 reported unconverged", name, sname)
			}
			if res.Iterations != 0 {
				t.Fatalf("%s/%s: converged X0 cost %d iterations, want 0", name, sname, res.Iterations)
			}
			for i, v := range res.X {
				if v != xTrue[i] {
					t.Fatalf("%s/%s: X0 not returned unchanged at %d: %v vs %v", name, sname, i, v, xTrue[i])
				}
			}
		}
	}
}

// TestLSMRMultiDampedMatchesScalarBitIdentical extends the bitwise
// panel-vs-k = 1 pin to the damped path: with the same λ, every panel
// column must equal the damped k = 1 LSMR solve to the last bit.
func TestLSMRMultiDampedMatchesScalarBitIdentical(t *testing.T) {
	defer mat.SetParallelism(0)
	mat.SetParallelism(1)
	rng := rand.New(rand.NewPCG(131, 133))
	const k = 4
	cases := map[string]mat.Matrix{
		"dense":  randDense(rng, 37, 14),
		"sparse": randSparse(rng, 52, 19),
	}
	for name, m := range cases {
		rows, cols := m.Dims()
		y := make([]float64, rows*k)
		noise.LaplaceVec(noise.NewRand(137), y, 1)
		ws := mat.NewWorkspace()
		opts := Options{MaxIter: 400, Tol: 1e-10, Work: ws, Damp: 0.7}
		multi := LSMRMulti(m, y, k, opts)
		for c := 0; c < k; c++ {
			single := LSMR(m, extractCol(y, k, c), opts)
			for i := 0; i < cols; i++ {
				if got, want := multi.X[i*k+c], single.X[i]; got != want {
					t.Fatalf("%s: damped column %d diverges at %d: %v vs %v (not bit-identical)",
						name, c, i, got, want)
				}
			}
		}
	}
}

// TestTolFloorStopsAtAbsoluteTarget pins the Options.TolFloor contract
// the serve layer's warm refreshes rely on: (1) a floor at or above the
// start point's gradient norm converges in zero iterations with the
// start returned unchanged, (2) a mid-range floor stops strictly
// earlier than the pure relative rule while still converging, and
// (3) per-column floors keep each panel column bit-identical to the
// k = 1 solve given that column's floor.
func TestTolFloorStopsAtAbsoluteTarget(t *testing.T) {
	defer mat.SetParallelism(0)
	mat.SetParallelism(1)
	rng := rand.New(rand.NewPCG(191, 193))
	const k = 3
	m := randDense(rng, 42, 15)
	rows, cols := m.Dims()
	y := make([]float64, rows*k)
	noise.LaplaceVec(noise.NewRand(197), y, 1)
	ws := mat.NewWorkspace()

	// Per-column gradient norms ‖Aᵀy_c‖ of the zero start, accumulated
	// in the same row order the solvers use.
	s := make([]float64, cols*k)
	mat.TMatMat(m, s, y, k)
	grad0 := make([]float64, k)
	for c := 0; c < k; c++ {
		var sum float64
		for i := c; i < len(s); i += k {
			sum += s[i] * s[i]
		}
		grad0[c] = math.Sqrt(sum)
	}

	for sname, solve := range map[string]func(o Options) Result{
		"cgls": func(o Options) Result { return CGLSMulti(m, y, k, o) },
		"lsmr": func(o Options) Result { return LSMRMulti(m, y, k, o) },
	} {
		base := Options{MaxIter: 400, Work: ws}
		tight := solve(base)

		huge := make([]float64, k)
		for c := range huge {
			huge[c] = 1.001 * grad0[c]
		}
		o := base
		o.TolFloor = huge
		res := solve(o)
		if !res.Converged || res.Iterations != 0 {
			t.Fatalf("%s: floor above start gradient: iterations=%d converged=%v, want 0/true",
				sname, res.Iterations, res.Converged)
		}
		for i, v := range res.X {
			if v != 0 {
				t.Fatalf("%s: floor above start gradient: X[%d]=%v, want the zero start unchanged", sname, i, v)
			}
		}

		mid := make([]float64, k)
		for c := range mid {
			mid[c] = 1e-4 * grad0[c]
		}
		o.TolFloor = mid
		loose := solve(o)
		if !loose.Converged || loose.Iterations >= tight.Iterations {
			t.Fatalf("%s: mid floor ran %d iterations vs %d relative-rule, want strictly fewer and converged (%v)",
				sname, loose.Iterations, tight.Iterations, loose.Converged)
		}

		for c := 0; c < k; c++ {
			so := base
			so.TolFloor = []float64{mid[c]}
			var single []float64
			if sname == "cgls" {
				single = CGLS(m, extractCol(y, k, c), so).X
			} else {
				single = LSMR(m, extractCol(y, k, c), so).X
			}
			for i := 0; i < cols; i++ {
				if got, want := loose.X[i*k+c], single[i]; got != want {
					t.Fatalf("%s: floored column %d diverges at %d: %v vs %v (not bit-identical)",
						sname, c, i, got, want)
				}
			}
		}
	}
}

// TestLSMRDampedMatchesAugmentedSystem checks the damped semantics:
// LSMR with Damp = λ must solve the augmented plain least-squares
// problem [A; λI]·x = [y; 0], which is what minimizing
// ‖Ax − y‖² + λ²‖x‖² means.
func TestLSMRDampedMatchesAugmentedSystem(t *testing.T) {
	rng := rand.New(rand.NewPCG(141, 143))
	a := randDense(rng, 28, 11)
	rows, cols := a.Dims()
	y := make([]float64, rows)
	noise.LaplaceVec(noise.NewRand(147), y, 1)
	const damp = 0.9
	ws := mat.NewWorkspace()

	lam := make([]float64, cols)
	for i := range lam {
		lam[i] = damp
	}
	aug := mat.VStack(a, mat.RowScaled(lam, mat.Identity(cols)))
	yAug := append(append([]float64(nil), y...), make([]float64, cols)...)

	opts := Options{MaxIter: 600, Tol: 1e-12, Work: ws}
	damped := LSMR(a, y, Options{MaxIter: 600, Tol: 1e-12, Work: ws, Damp: damp})
	augRes := LSMR(aug, yAug, opts)
	if !vec.AllClose(damped.X, augRes.X, 1e-8, 1e-8) {
		t.Fatalf("damped LSMR disagrees with augmented system: %v vs %v", damped.X, augRes.X)
	}
	// And against the damped normal equations through NormalMulti.
	g := mat.Gram(a)
	rhs := make([]float64, cols)
	a.TMatVec(rhs, y)
	norm := NormalMulti(g, rhs, 1, damp, ws)
	if !vec.AllClose(damped.X, norm.X, 1e-8, 1e-8) {
		t.Fatalf("damped LSMR disagrees with damped normal equations: %v vs %v", damped.X, norm.X)
	}
}

// TestNormalMultiMatchesDirectLSBitIdentical pins NormalMulti's
// arithmetic to the existing direct solver: fed the same Gram matrix
// and right-hand side DirectLS builds internally, the k=1 undamped
// solve must reproduce DirectLS bit for bit (same ridge, same
// factorization, same substitution order).
func TestNormalMultiMatchesDirectLSBitIdentical(t *testing.T) {
	defer mat.SetParallelism(0)
	mat.SetParallelism(1)
	rng := rand.New(rand.NewPCG(151, 153))
	for _, shape := range [][2]int{{25, 9}, {60, 24}} {
		a := randDense(rng, shape[0], shape[1])
		rows, cols := a.Dims()
		y := make([]float64, rows)
		noise.LaplaceVec(noise.NewRand(157), y, 1)
		ws := mat.NewWorkspace()
		want := DirectLS(a, y, ws)
		g := mat.Gram(a)
		rhs := make([]float64, cols)
		a.TMatVec(rhs, y)
		got := NormalMulti(g, rhs, 1, 0, ws)
		if got.Iterations != 1 || !got.Converged {
			t.Fatalf("NormalMulti reported iterations=%d converged=%v", got.Iterations, got.Converged)
		}
		for i := range want {
			if got.X[i] != want[i] {
				t.Fatalf("%dx%d: NormalMulti diverges from DirectLS at %d: %v vs %v (not bit-identical)",
					rows, cols, i, got.X[i], want[i])
			}
		}
	}
}

// TestNormalMultiPanelColumnsIndependent checks that a k-column
// NormalMulti solve equals k independent single-column solves bit for
// bit — the property that makes the serve layer's replicate columns
// deterministic under any batching.
func TestNormalMultiPanelColumnsIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(161, 163))
	a := randDense(rng, 40, 17)
	rows, cols := a.Dims()
	const k = 5
	y := make([]float64, rows*k)
	noise.LaplaceVec(noise.NewRand(167), y, 1)
	ws := mat.NewWorkspace()
	g := mat.Gram(a)
	rhs := make([]float64, cols*k)
	mat.TMatMat(a, rhs, y, k)
	multi := NormalMulti(g, rhs, k, 0.3, ws)
	for c := 0; c < k; c++ {
		single := NormalMulti(g, extractCol(rhs, k, c), 1, 0.3, ws)
		for i := 0; i < cols; i++ {
			if got, want := multi.X[i*k+c], single.X[i]; got != want {
				t.Fatalf("column %d diverges at %d: %v vs %v (not bit-identical)", c, i, got, want)
			}
		}
	}
	// The caller's Gram state must survive the solve untouched.
	fresh := mat.Gram(a)
	for i, v := range fresh.Data() {
		if g.Data()[i] != v {
			t.Fatalf("NormalMulti mutated the caller's Gram matrix at %d", i)
		}
	}
}
