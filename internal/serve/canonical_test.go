package serve

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/core/ops"
	"repro/internal/core/plans"
	"repro/internal/kernel"
	"repro/internal/mat"
)

// fallbackCanonical is canonicalMatrix as it was before the structural
// walk: every entry pulled through implicitTriplets, then the same ⅓
// rule. It is the oracle the structural form must equal exactly.
func fallbackCanonical(m mat.Matrix) mat.Matrix {
	switch m.(type) {
	case *mat.Dense, *mat.Sparse:
		return m
	}
	rows, cols := m.Dims()
	ts := implicitTriplets(m)
	if len(ts)*3 < rows*cols {
		return mat.NewSparse(rows, cols, ts)
	}
	d := mat.NewDense(rows, cols, nil)
	for _, t := range ts {
		d.Set(t.Row, t.Col, t.Val)
	}
	return d
}

// sameCanonical reports whether two canonical matrices have the same
// concrete type, dimensions and entries bit for bit, so that the block
// encoder writes the same record for both.
func sameCanonical(t *testing.T, label string, got, want mat.Matrix) {
	t.Helper()
	gr, gc := got.Dims()
	wr, wc := want.Dims()
	if gr != wr || gc != wc {
		t.Fatalf("%s: dims %dx%d, fallback %dx%d", label, gr, gc, wr, wc)
	}
	switch w := want.(type) {
	case *mat.Dense:
		g, ok := got.(*mat.Dense)
		if !ok {
			t.Fatalf("%s: structural form is %T, fallback *mat.Dense", label, got)
		}
		for i, v := range w.Data() {
			if math.Float64bits(g.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("%s: dense entry %d is %v, fallback %v", label, i, g.Data()[i], v)
			}
		}
	case *mat.Sparse:
		g, ok := got.(*mat.Sparse)
		if !ok {
			t.Fatalf("%s: structural form is %T, fallback *mat.Sparse", label, got)
		}
		if g.NNZ() != w.NNZ() {
			t.Fatalf("%s: %d stored entries, fallback %d", label, g.NNZ(), w.NNZ())
		}
		for i := 0; i < wr; i++ {
			gcols, gvals := g.RowNNZ(i)
			wcols, wvals := w.RowNNZ(i)
			if len(gcols) != len(wcols) {
				t.Fatalf("%s: row %d has %d entries, fallback %d", label, i, len(gcols), len(wcols))
			}
			for k := range wcols {
				if gcols[k] != wcols[k] || math.Float64bits(gvals[k]) != math.Float64bits(wvals[k]) {
					t.Fatalf("%s: row %d entry %d is (%d, %v), fallback (%d, %v)",
						label, i, k, gcols[k], gvals[k], wcols[k], wvals[k])
				}
			}
		}
	default:
		t.Fatalf("%s: fallback form %T is not canonical", label, want)
	}
}

// TestCanonicalStructuralEqualsFallback is the oracle for the O(nnz)
// commit path: wherever canonicalMatrix takes its entries from the
// structural walk, the result is the matrix the basis-panel fallback
// builds, so the committed record is the same bytes as before.
func TestCanonicalStructuralEqualsFallback(t *testing.T) {
	// Every served strategy is structural at every size; 100 exercises
	// privelet's column subset, 1 and 2 the degenerate hierarchies.
	for _, name := range Strategies() {
		for _, n := range []int{1, 2, 7, 64, 100, 1024} {
			m, err := strategyByName(name, n)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := mat.Triplets(m, 0); !ok {
				t.Errorf("%s/%d: %T has no structural form", name, n, m)
			}
			sameCanonical(t, fmt.Sprintf("%s/%d", name, n), canonicalMatrix(m), fallbackCanonical(m))
		}
	}

	// Explicit zeros must not reach the CSR or tip the ⅓ rule: the
	// all-zero matrix is an empty CSR, not a dense block of zeros, and a
	// Kronecker factor's zero rows vanish.
	zeroCases := map[string]mat.Matrix{
		"scaled-0":       mat.Scaled(0, mat.Prefix(6)),
		"rowscaled-0":    mat.RowScaled([]float64{1, 0, 2, 0}, mat.Ones(4, 3)),
		"kron-diag-zero": mat.Kron(mat.Diag([]float64{1, 0, -2}), mat.Prefix(4)),
		"kron-zero":      mat.Kron(mat.Scaled(0, mat.Identity(3)), mat.Ones(2, 2)),
	}
	for name, m := range zeroCases {
		if _, ok := mat.Triplets(m, 0); !ok {
			t.Errorf("%s: no structural form", name)
		}
		sameCanonical(t, name, canonicalMatrix(m), fallbackCanonical(m))
	}
	if sp, ok := canonicalMatrix(zeroCases["scaled-0"]).(*mat.Sparse); !ok || sp.NNZ() != 0 {
		t.Errorf("Scaled(0, ·) canonicalised to %T, want an empty CSR", canonicalMatrix(zeroCases["scaled-0"]))
	}

	// Every block of every registry plan at n = 256.
	params := map[string]plans.Params{
		"MWEM":           {Rounds: 3, Total: 40000},
		"MWEM variant b": {Rounds: 3, Total: 40000},
		"MWEM variant c": {Rounds: 3, Total: 40000},
		"MWEM variant d": {Rounds: 3, Total: 40000},
		"UniformGrid":    {Total: 40000},
		"AdaptiveGrid":   {Total: 40000},
		"HDMM":           {Seed: 5},
	}
	const n = 256
	var onFallback []string
	for i, name := range plans.PlanNames() {
		g, err := plans.GraphByName(name, n, 1, params[name])
		if err != nil {
			t.Fatalf("plan %q: %v", name, err)
		}
		x := make([]float64, n)
		for j := range x {
			x[j] = float64((j*37 + i) % 90)
		}
		kern, root := kernel.InitVectorSeeded(x, 10, uint64(7+i))
		env := ops.NewEnv(kern.NewSession().Bind(root))
		if _, err := g.ExecuteEnv(env); err != nil {
			t.Fatalf("plan %q: %v", name, err)
		}
		if env.MS.NumBlocks() == 0 {
			t.Fatalf("plan %q measured nothing", name)
		}
		structural := true
		for b := 0; b < env.MS.NumBlocks(); b++ {
			m, _, _ := env.MS.Block(b)
			if _, ok := mat.Triplets(m, 0); !ok {
				structural = false
			}
			sameCanonical(t, name, canonicalMatrix(m), fallbackCanonical(m))
		}
		if !structural {
			onFallback = append(onFallback, name)
		}
	}
	// The five plans that measure through a lazy product (mat.ProductMat)
	// stay on the fallback: a product's entries are sums whose order is
	// its factors' kernels' business, so the walk does not list them.
	sort.Strings(onFallback)
	want := []string{"AHP", "AdaptiveGrid", "DAWA", "DAWA-Striped", "HB-Striped"}
	if !slices.Equal(onFallback, want) {
		t.Errorf("registry plans with a block on the implicitTriplets fallback: %q, want %q", onFallback, want)
	}
}
