package mat

import "testing"

// TestCombinatorAbsAgainstDense exercises every combinator's Abs
// against the dense reference in one sweep.
func TestCombinatorAbsAgainstDense(t *testing.T) {
	neg := DenseFromRows([][]float64{{-1, 2, -3}, {4, -5, 6}})
	cases := map[string]Matrix{
		"vstack":    VStack(neg, Scaled(-1, Ones(2, 3))),
		"product":   Product(neg, Diag([]float64{-1, 2, -0.5})),
		"kron":      Kron(neg, Diag([]float64{-2, 1})),
		"transpose": T(neg),
		"scaled":    Scaled(-2.5, neg),
		"rowscaled": RowScaled([]float64{-1, 3}, neg),
		"diag":      Diag([]float64{-4, 0, 4}),
	}
	for name, m := range cases {
		d := Materialize(m)
		if !Equal(Abs(m), d.Abs(), 1e-12) {
			t.Errorf("%s: Abs mismatch", name)
		}
	}
}

func TestProductNonBinaryAbsMaterializes(t *testing.T) {
	// A product with negative entries cannot use the binary shortcut:
	// abs(AB) != abs(A)abs(B) in general, so Abs must materialize and be
	// exact.
	a := DenseFromRows([][]float64{{1, -1}})
	b := DenseFromRows([][]float64{{1}, {1}})
	p := Product(a, b) // materializes to [0]
	absP := Materialize(Abs(p))
	if absP.At(0, 0) != 0 {
		t.Fatalf("abs(product) = %v, want 0 (not 2)", absP.At(0, 0))
	}
}
