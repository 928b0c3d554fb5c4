package inference

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/mat"
)

// TestNormalEquationsAreTheStackedNormalEquations: folding blocks —
// a repeated strategy included, which enters once per block — yields
// G = AᵀW²A and B = AᵀW²Y of the stacked weighted system.
func TestNormalEquationsAreTheStackedNormalEquations(t *testing.T) {
	const n, k = 12, 2
	rng := rand.New(rand.NewPCG(3, 4))
	ms := []mat.Matrix{canon(mat.Identity(n)), canon(mat.Prefix(n)), canon(mat.Identity(n))}
	ws := []float64{0.5, 2, 0.25}
	e := NewNormalEquations(n, k)
	wantG := make([]float64, n*n)
	wantB := make([]float64, n*k)
	for bi, m := range ms {
		rows, _ := m.Dims()
		y := randPanel(rng, rows*k)
		e.Fold(m, Digest(m), ws[bi], y)
		w2 := ws[bi] * ws[bi]
		md := mat.Materialize(m)
		for r := 0; r < rows; r++ {
			for i := 0; i < n; i++ {
				a := md.At(r, i)
				for j := 0; j < n; j++ {
					wantG[i*n+j] += w2 * a * md.At(r, j)
				}
				for c := 0; c < k; c++ {
					wantB[i*k+c] += w2 * a * y[r*k+c]
				}
			}
		}
	}
	near := func(got, want []float64) bool {
		for i, v := range want {
			if math.Abs(got[i]-v) > 1e-9*(1+math.Abs(v)) {
				return false
			}
		}
		return true
	}
	if !near(e.G.Data(), wantG) {
		t.Fatal("G is not AᵀW²A of the stacked blocks")
	}
	if !near(e.B, wantB) {
		t.Fatal("B is not AᵀW²Y of the stacked blocks")
	}
}
