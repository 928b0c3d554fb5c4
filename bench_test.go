package repro

// One testing.B benchmark per table/figure of the paper's evaluation
// (§10), plus mat-vec microbenchmarks backing the complexity claims of
// paper Tables 2 and 3. Each experiment benchmark runs its Quick
// configuration; `cmd/ektelo-bench -full` regenerates the paper-scale
// numbers.

import (
	"fmt"
	"testing"

	"repro/internal/core/partition"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/noise"
	"repro/internal/solver"
	"repro/internal/vec"
)

// BenchmarkTable4MWEMVariants regenerates Table 4 (MWEM recombinations).
func BenchmarkTable4MWEMVariants(b *testing.B) {
	cfg := experiments.QuickTable4()
	cfg.Datasets = cfg.Datasets[:2]
	cfg.Trials = 1
	for i := 0; i < b.N; i++ {
		experiments.Table4(cfg)
	}
}

// BenchmarkTable5Census regenerates Table 5 (Census case study).
func BenchmarkTable5Census(b *testing.B) {
	cfg := experiments.QuickTable5()
	for i := 0; i < b.N; i++ {
		experiments.Table5(cfg)
	}
}

// BenchmarkTable6Reduction regenerates Table 6 (workload-based domain
// reduction).
func BenchmarkTable6Reduction(b *testing.B) {
	cfg := experiments.QuickTable6()
	cfg.Trials = 1
	for i := 0; i < b.N; i++ {
		experiments.Table6(cfg)
	}
}

// BenchmarkFig3NaiveBayes regenerates Figure 3 (private NB classifier).
func BenchmarkFig3NaiveBayes(b *testing.B) {
	cfg := experiments.QuickFig3()
	cfg.Epsilons = []float64{1e-1}
	for i := 0; i < b.N; i++ {
		experiments.Fig3(cfg)
	}
}

// BenchmarkFig4aPlans regenerates Figure 4a (plan scalability by matrix
// representation, low-dimensional plans).
func BenchmarkFig4aPlans(b *testing.B) {
	cfg := experiments.QuickFig4a()
	cfg.Domains = cfg.Domains[:1]
	for i := 0; i < b.N; i++ {
		experiments.Fig4a(cfg)
	}
}

// BenchmarkFig4bMultiD regenerates Figure 4b (multi-dimensional plans).
func BenchmarkFig4bMultiD(b *testing.B) {
	cfg := experiments.QuickFig4b()
	cfg.IncomeSizes = cfg.IncomeSizes[:1]
	for i := 0; i < b.N; i++ {
		experiments.Fig4b(cfg)
	}
}

// BenchmarkFig5Inference regenerates Figure 5 (inference scalability).
func BenchmarkFig5Inference(b *testing.B) {
	cfg := experiments.QuickFig5()
	for i := 0; i < b.N; i++ {
		experiments.Fig5(cfg)
	}
}

// ---------------------------------------------------------------------
// Microbenchmarks for the implicit-matrix complexity claims (paper
// Tables 2 and 3): mat-vec cost of core matrices against their explicit
// representations.
// ---------------------------------------------------------------------

const benchN = 1 << 14

func benchMatVec(b *testing.B, m mat.Matrix) {
	b.Helper()
	_, c := m.Dims()
	r, _ := m.Dims()
	x := make([]float64, c)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	dst := make([]float64, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatVec(dst, x)
	}
}

func BenchmarkMatVecPrefixImplicit(b *testing.B) { benchMatVec(b, mat.Prefix(benchN)) }

func BenchmarkMatVecPrefixDense(b *testing.B) {
	n := 1 << 11 // dense n² memory: keep modest
	benchMatVec(b, mat.Materialize(mat.Prefix(n)))
}

func BenchmarkMatVecWaveletImplicit(b *testing.B) { benchMatVec(b, mat.Wavelet(benchN)) }

func BenchmarkMatVecIdentityImplicit(b *testing.B) { benchMatVec(b, mat.Identity(benchN)) }

func BenchmarkMatVecH2Implicit(b *testing.B) {
	benchMatVec(b, mat.VStack(mat.Identity(benchN), mat.RangeQueries(benchN, mat.HierarchicalRanges(benchN, 2))))
}

func BenchmarkMatVecH2Sparse(b *testing.B) {
	h2 := mat.VStack(mat.Identity(benchN), mat.RangeQueries(benchN, mat.HierarchicalRanges(benchN, 2)))
	s, ok := mat.ToSparse(h2, 0)
	if !ok {
		b.Fatal("sparse conversion failed")
	}
	benchMatVec(b, s)
}

func BenchmarkMatVecKronMarginals(b *testing.B) {
	// All-2-way-marginal style Kronecker over a 64x64x64 domain.
	m := mat.Kron(mat.Identity(64), mat.Identity(64), mat.Total(64))
	benchMatVec(b, m)
}

// ---------------------------------------------------------------------
// Engine benchmarks: serial vs parallel mat-vec on ≥ 2^20-cell matrices
// (the acceptance scale for the shared compute engine). Each family runs
// at parallelism 1 and 4 so the speedup is read directly off the
// sub-benchmark ratio; allocations are reported and must be 0 on the
// steady state.
// ---------------------------------------------------------------------

func benchMatVecParallel(b *testing.B, m mat.Matrix) {
	b.Helper()
	r, c := m.Dims()
	x := make([]float64, c)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	dst := make([]float64, r)
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			mat.SetParallelism(p)
			defer mat.SetParallelism(0)
			m.MatVec(dst, x) // warm pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MatVec(dst, x)
			}
		})
	}
}

// benchCase names one benchmark matrix; build constructs it on demand
// (the 2^20-cell shapes take a moment, so callers build only what they
// measure).
type benchCase struct {
	name  string
	build func() mat.Matrix
}

// matVecCases are the mat-vec engine benchmark shapes: the ≥ 2^20-cell
// matrix families that dominate every plan in the paper's evaluation
// (Kronecker plans, stacked measurement unions, CSR strategies, dense
// fallbacks).
func matVecCases() []benchCase {
	const n = 1 << 20
	return []benchCase{
		{"kron_prefix_wavelet_2^20", func() mat.Matrix {
			return mat.Kron(mat.Prefix(1<<10), mat.Wavelet(1<<10))
		}},
		{"vstack_id_h2_prefix_2^20", func() mat.Matrix {
			return mat.VStack(mat.Identity(n), mat.RangeQueries(n, mat.HierarchicalRanges(n, 2)), mat.Prefix(n))
		}},
		{"sparse_h2_csr_2^20", func() mat.Matrix {
			h2 := mat.VStack(mat.Identity(n), mat.RangeQueries(n, mat.HierarchicalRanges(n, 2)))
			sparse, ok := mat.ToSparse(h2, 0)
			if !ok {
				panic("bench: sparse conversion of H2 failed")
			}
			return sparse
		}},
		{"dense_2^11x2^11", func() mat.Matrix {
			dn := 1 << 11
			dense := mat.NewDense(dn, dn, nil)
			for i := 0; i < dn; i++ {
				for j := 0; j < dn; j++ {
					dense.Set(i, j, float64((i+j)%5)-2)
				}
			}
			return dense
		}},
	}
}

// BenchmarkMatVecEngine runs the engine benchmark shapes (matVecCases:
// 2^20-cell Kronecker, stacked H2 union, CSR H2, 2^22-cell dense).
func BenchmarkMatVecEngine(b *testing.B) {
	for _, c := range matVecCases() {
		b.Run(c.name, func(b *testing.B) {
			benchMatVecParallel(b, c.build())
		})
	}
}

// BenchmarkLSMRWorkspace measures the Fig. 5 hot path with the
// workspace-backed steady state: 0 allocs/op in the iteration loop.
func BenchmarkLSMRWorkspace(b *testing.B) {
	m := solver.TreeMatrix(benchN, 2)
	r, _ := m.Dims()
	rng := noise.NewRand(3)
	y := make([]float64, r)
	noise.LaplaceVec(rng, y, 1)
	ws := mat.NewWorkspace()
	opts := solver.Options{MaxIter: 50, Tol: 1e-8, Work: ws}
	solver.LSMR(m, y, opts) // warm the workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.LSMR(m, y, opts)
	}
}

// ---------------------------------------------------------------------
// Blocked Gram and multi-RHS (MatMat) benchmarks. The Gram shapes are
// gramCases; blocked-vs-column speedups are read off the
// sub-benchmark ratio. Allocations are reported; the MatMat steady
// states for Dense and CSR must make none.
// ---------------------------------------------------------------------

// gramCases are the Gram benchmark shapes, one per kernel: a large
// dense matrix (the blocked Dense kernel DirectLS runs) and a
// RangeQueries CSR strategy (the CSR kernel the normal-equation fold
// runs).
func gramCases() []benchCase {
	return []benchCase{
		{"dense_2048x2048", func() mat.Matrix {
			n := 2048
			d := mat.NewDense(n, n, nil)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					d.Set(i, j, float64((i*31+j*17)%9)-4)
				}
			}
			return d
		}},
		{"csr_rangequeries_2048", func() mat.Matrix {
			n := 2048
			h2 := mat.RangeQueries(n, mat.HierarchicalRanges(n, 2))
			s, ok := mat.ToSparse(h2, 0)
			if !ok {
				panic("bench: sparse conversion of range strategy failed")
			}
			return s
		}},
	}
}

func benchGramCase(b *testing.B, name string) {
	b.Helper()
	for _, c := range gramCases() {
		if c.name != name {
			continue
		}
		m := c.build()
		b.Run("blocked", func(b *testing.B) {
			mat.SetParallelism(1)
			defer mat.SetParallelism(0)
			mat.Gram(m) // warm pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mat.Gram(m)
			}
		})
		b.Run("columns", func(b *testing.B) {
			mat.SetParallelism(1)
			defer mat.SetParallelism(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mat.GramColumns(m)
			}
		})
		return
	}
	b.Fatalf("unknown gram case %q", name)
}

func BenchmarkGramDense(b *testing.B)  { benchGramCase(b, "dense_2048x2048") }
func BenchmarkGramSparse(b *testing.B) { benchGramCase(b, "csr_rangequeries_2048") }

// benchMatMat compares k separate MatVecs against one k-wide MatMat on
// the same matrix, reporting both so the batching win is the ratio.
func benchMatMat(b *testing.B, m mat.Matrix, k int) {
	b.Helper()
	r, c := m.Dims()
	x := make([]float64, c*k)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	dst := make([]float64, r*k)
	xc := make([]float64, c)
	yc := make([]float64, r)
	b.Run(fmt.Sprintf("matvec_x%d", k), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for col := 0; col < k; col++ {
				for j := 0; j < c; j++ {
					xc[j] = x[j*k+col]
				}
				m.MatVec(yc, xc)
			}
		}
	})
	b.Run(fmt.Sprintf("matmat_k%d", k), func(b *testing.B) {
		mat.MatMat(m, dst, x, k) // warm pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mat.MatMat(m, dst, x, k)
		}
	})
}

func BenchmarkMatMatDense(b *testing.B) {
	n := 1 << 10
	d := mat.NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d.Set(i, j, float64((i+j)%5)-2)
		}
	}
	benchMatMat(b, d, 8)
}

func BenchmarkMatMatSparse(b *testing.B) {
	n := 1 << 16
	h2 := mat.VStack(mat.Identity(n), mat.RangeQueries(n, mat.HierarchicalRanges(n, 2)))
	s, ok := mat.ToSparse(h2, 0)
	if !ok {
		b.Fatal("sparse conversion failed")
	}
	benchMatMat(b, s, 8)
}

func BenchmarkMatMatKron(b *testing.B) {
	benchMatMat(b, mat.Kron(mat.Prefix(1<<9), mat.Wavelet(1<<9)), 8)
}

// BenchmarkSensitivityImplicit measures the automatic sensitivity
// computation that VectorLaplace performs on every call.
func BenchmarkSensitivityImplicit(b *testing.B) {
	m := mat.VStack(mat.Identity(benchN), mat.RangeQueries(benchN, mat.HierarchicalRanges(benchN, 2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.L1Sensitivity(m)
	}
}

// BenchmarkCGLSImplicitH2 measures iterative least squares over
// hierarchical measurements at benchN cells (the Fig. 5 hot path).
func BenchmarkCGLSImplicitH2(b *testing.B) {
	m := solver.TreeMatrix(benchN, 2)
	r, _ := m.Dims()
	rng := noise.NewRand(3)
	y := make([]float64, r)
	noise.LaplaceVec(rng, y, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.CGLS(m, y, solver.Options{MaxIter: 50, Tol: 1e-8})
	}
}

// BenchmarkTreeLS measures the specialized Hay et al. inference.
func BenchmarkTreeLS(b *testing.B) {
	m := solver.TreeMatrix(benchN, 2)
	r, _ := m.Dims()
	rng := noise.NewRand(4)
	y := make([]float64, r)
	noise.LaplaceVec(rng, y, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.TreeLS(benchN, 2, y, nil)
	}
}

// BenchmarkVectorLaplaceEndToEnd measures one kernel round trip:
// budget request, sensitivity, query evaluation and noise.
func BenchmarkVectorLaplaceEndToEnd(b *testing.B) {
	x := dataset.Synthetic1D("uniform", benchN, 1e5, 9)
	m := mat.Identity(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, h := kernel.InitVector(x, 1e12, noise.NewRand(uint64(i)))
		if _, _, err := h.VectorLaplace(m, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVectorize measures T-Vectorize over the census table.
func BenchmarkVectorize(b *testing.B) {
	tbl := dataset.Census(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := tbl.Vectorize()
		if vec.Sum(x) != float64(tbl.NumRows()) {
			b.Fatal("mass lost")
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks for the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------

// BenchmarkAblationInference compares the three inference operators on
// identical hierarchical measurements — the operator-swap at the heart
// of the MWEM case study (§9.1).
func BenchmarkAblationInference(b *testing.B) {
	n := 1024
	m := solver.TreeMatrix(n, 2)
	r, _ := m.Dims()
	rng := noise.NewRand(5)
	y := make([]float64, r)
	noise.LaplaceVec(rng, y, 1)
	xInit := make([]float64, n)
	vec.Fill(xInit, 100)
	b.Run("LS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.LeastSquares(m, y, nil, solver.Options{MaxIter: 80, Tol: 1e-8})
		}
	})
	b.Run("NNLS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.NNLS(m, y, nil, solver.Options{MaxIter: 80, Tol: 1e-8})
		}
	})
	b.Run("MW-10rows", func(b *testing.B) {
		// MW iterates per measurement row; bench a 10-row slice to keep
		// the comparison per-update.
		small := solver.TreeMatrix(64, 2)
		sr, _ := small.Dims()
		sy := make([]float64, sr)
		noise.LaplaceVec(rng, sy, 1)
		sInit := make([]float64, 64)
		vec.Fill(sInit, 10)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solver.MultWeights(small, sy, sInit, 1, nil)
		}
	})
}

// BenchmarkAblationSolvers compares the two Krylov least-squares
// engines (the paper names LSMR; CGLS was the development stand-in) and
// FISTA NNLS, each a single-vector solve, against a small direct solve.
func BenchmarkAblationSolvers(b *testing.B) {
	n := 4096
	m := solver.TreeMatrix(n, 2)
	r, _ := m.Dims()
	rng := noise.NewRand(6)
	y := make([]float64, r)
	noise.LaplaceVec(rng, y, 1)
	b.Run("LSMR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.LSMR(m, y, solver.Options{MaxIter: 80, Tol: 1e-8})
		}
	})
	b.Run("CGLS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.CGLS(m, y, solver.Options{MaxIter: 80, Tol: 1e-8})
		}
	})
	b.Run("NNLS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.NNLS(m, y, nil, solver.Options{MaxIter: 80, Tol: 1e-8})
		}
	})
	b.Run("Direct-small", func(b *testing.B) {
		small := solver.TreeMatrix(256, 2)
		sr, _ := small.Dims()
		sy := make([]float64, sr)
		noise.LaplaceVec(rng, sy, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solver.DirectLS(mat.Materialize(small), sy, nil)
		}
	})
}

// BenchmarkAblationWorkloadReduction measures the cost of the §8
// reduction itself (Algorithm 4) against the plan time it saves.
func BenchmarkAblationWorkloadReduction(b *testing.B) {
	n := 8192
	w := func() mat.Matrix {
		rng := noise.NewRand(7)
		ranges := make([]mat.Range1D, 500)
		for i := range ranges {
			width := 1 + rng.IntN(16)
			lo := rng.IntN(n - width)
			ranges[i] = mat.Range1D{Lo: lo, Hi: lo + width - 1}
		}
		return mat.RangeQueries(n, ranges)
	}()
	rng := noise.NewRand(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := partition.WorkloadBased(w, rng, 2)
		if p.K >= n {
			b.Fatal("no reduction")
		}
	}
}
