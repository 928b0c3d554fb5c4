package solver

import (
	"math/rand/v2"
	"testing"

	"repro/internal/mat"
	"repro/internal/vec"
)

func TestTreeNodes(t *testing.T) {
	if got := TreeNodes(2, 4); got != 15 { // 1+2+4+8
		t.Fatalf("TreeNodes(2,4) = %d, want 15", got)
	}
	if got := TreeNodes(4, 3); got != 21 { // 1+4+16
		t.Fatalf("TreeNodes(4,3) = %d, want 21", got)
	}
}

func TestTreeMatrixStructure(t *testing.T) {
	m := TreeMatrix(8, 2)
	r, c := m.Dims()
	if r != 15 || c != 8 {
		t.Fatalf("TreeMatrix dims = %dx%d, want 15x8", r, c)
	}
	// Root row sums everything.
	x := vec.Ones(8)
	y := mat.Mul(m, x)
	if y[0] != 8 {
		t.Fatalf("root answer = %v, want 8", y[0])
	}
	// Last 8 rows are the leaves.
	for i := 7; i < 15; i++ {
		if y[i] != 1 {
			t.Fatalf("leaf answer %d = %v, want 1", i, y[i])
		}
	}
}

func TestTreeLSNoiselessRecovers(t *testing.T) {
	n := 16
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i * i % 7)
	}
	m := TreeMatrix(n, 2)
	y := mat.Mul(m, x)
	got := TreeLS(n, 2, y, nil)
	if !vec.AllClose(got, x, 1e-9, 1e-9) {
		t.Fatalf("noiseless TreeLS = %v, want %v", got, x)
	}
}

func TestTreeLSMatchesGenericLS(t *testing.T) {
	// The specialized algorithm must agree with CGLS on the same noisy
	// hierarchy (equal per-row noise).
	rng := rand.New(rand.NewPCG(29, 31))
	n := 16
	m := TreeMatrix(n, 2)
	rows, _ := m.Dims()
	y := make([]float64, rows)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(rng.IntN(20))
	}
	mat.Mul(m, xTrue)
	base := mat.Mul(m, xTrue)
	for i := range y {
		y[i] = base[i] + rng.Float64()*2 - 1
	}
	fast := TreeLS(n, 2, y, nil)
	generic := CGLS(m, y, Options{Tol: 1e-12}).X
	if !vec.AllClose(fast, generic, 1e-6, 1e-6) {
		t.Fatalf("TreeLS %v\n!= CGLS %v", fast, generic)
	}
}

func TestTreeLSQuaternary(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 41))
	n := 16
	m := TreeMatrix(n, 4)
	rows, _ := m.Dims()
	y := make([]float64, rows)
	for i := range y {
		y[i] = rng.Float64() * 10
	}
	fast := TreeLS(n, 4, y, nil)
	generic := CGLS(m, y, Options{Tol: 1e-12}).X
	if !vec.AllClose(fast, generic, 1e-6, 1e-6) {
		t.Fatalf("b=4 TreeLS mismatch:\n%v\n%v", fast, generic)
	}
}

func TestTreeLSRejectsBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { TreeLS(6, 2, make([]float64, 11), nil) }, // non-power leaves
		func() { TreeLS(8, 2, make([]float64, 10), nil) }, // wrong length
		func() { TreeMatrix(12, 4) },                      // 12 not a power of 4
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
