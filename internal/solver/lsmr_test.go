package solver

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/vec"
)

func TestLSMRExactSquareSystem(t *testing.T) {
	a := mat.DenseFromRows([][]float64{{2, 1}, {1, 3}})
	want := []float64{1, -2}
	y := mat.Mul(a, want)
	res := LSMR(a, y, Options{})
	if !vec.AllClose(res.X, want, 1e-8, 1e-8) {
		t.Fatalf("LSMR = %v, want %v", res.X, want)
	}
	if !res.Converged {
		t.Fatal("LSMR did not converge")
	}
}

func TestLSMRMatchesCGLSOverdetermined(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 53))
	for trial := 0; trial < 8; trial++ {
		a := randDense(rng, 15, 6)
		y := make([]float64, 15)
		for i := range y {
			y[i] = rng.Float64()*4 - 2
		}
		xl := LSMR(a, y, Options{Tol: 1e-12}).X
		xc := CGLS(a, y, Options{Tol: 1e-12}).X
		if !vec.AllClose(xl, xc, 1e-6, 1e-6) {
			t.Fatalf("trial %d: LSMR %v vs CGLS %v", trial, xl, xc)
		}
	}
}

func TestLSMRMinNormUnderdetermined(t *testing.T) {
	a := mat.Total(4)
	res := LSMR(a, []float64{8}, Options{})
	if !vec.AllClose(res.X, []float64{2, 2, 2, 2}, 1e-9, 1e-9) {
		t.Fatalf("min-norm = %v, want uniform 2s", res.X)
	}
}

func TestLSMRZeroRHS(t *testing.T) {
	res := LSMR(mat.Identity(3), []float64{0, 0, 0}, Options{})
	if vec.Norm2(res.X) != 0 || !res.Converged {
		t.Fatalf("LSMR(0) = %+v", res)
	}
}

func TestLSMRWarmStart(t *testing.T) {
	a := mat.DenseFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	want := []float64{3, -1}
	y := mat.Mul(a, want)
	res := LSMR(a, y, Options{X0: []float64{2.9, -1.1}})
	if !vec.AllClose(res.X, want, 1e-8, 1e-8) {
		t.Fatalf("warm-started LSMR = %v", res.X)
	}
	// Warm start near the solution should converge in very few steps.
	if res.Iterations > 5 {
		t.Fatalf("warm start took %d iterations", res.Iterations)
	}
}

func TestLSMRAlreadyOptimalStart(t *testing.T) {
	a := mat.Identity(2)
	res := LSMR(a, []float64{4, 5}, Options{X0: []float64{4, 5}})
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("optimal start not detected: %+v", res)
	}
}

func TestLSMRHierarchicalMeasurements(t *testing.T) {
	// The paper's actual use: inverting hierarchical measurements; must
	// agree with the specialized tree solver.
	rng := rand.New(rand.NewPCG(61, 67))
	n := 32
	m := TreeMatrix(n, 2)
	r, _ := m.Dims()
	y := make([]float64, r)
	for i := range y {
		y[i] = rng.Float64() * 10
	}
	xl := LSMR(m, y, Options{Tol: 1e-12}).X
	xt := TreeLS(n, 2, y, nil)
	if !vec.AllClose(xl, xt, 1e-6, 1e-6) {
		t.Fatalf("LSMR disagrees with TreeLS:\n%v\n%v", xl[:4], xt[:4])
	}
}

// Property: LSMR and CGLS agree on random consistent systems.
func TestLSMRAgreementQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 71))
		rows := 4 + rng.IntN(8)
		cols := 1 + rng.IntN(rows)
		a := randDense(rng, rows, cols)
		xTrue := make([]float64, cols)
		for i := range xTrue {
			xTrue[i] = rng.Float64()*6 - 3
		}
		y := mat.Mul(a, xTrue)
		xl := LSMR(a, y, Options{Tol: 1e-13}).X
		return vec.AllClose(xl, xTrue, 1e-5, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLSMRvsCGLS(b *testing.B) {
	n := 4096
	m := TreeMatrix(n, 2)
	r, _ := m.Dims()
	rng := rand.New(rand.NewPCG(1, 2))
	y := make([]float64, r)
	for i := range y {
		y[i] = rng.Float64() * 100
	}
	b.Run("LSMR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LSMR(m, y, Options{MaxIter: 100, Tol: 1e-8})
		}
	})
	b.Run("CGLS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			CGLS(m, y, Options{MaxIter: 100, Tol: 1e-8})
		}
	})
}
