package mat

import (
	"math"
	"testing"
)

func TestToSparseMatchesImplicit(t *testing.T) {
	cases := map[string]Matrix{
		"identity": Identity(6),
		"diag":     Diag([]float64{1, 0, -2}),
		"ones":     Ones(3, 4),
		"ranges":   RangeQueries(8, []Range1D{{Lo: 0, Hi: 7}, {Lo: 2, Hi: 3}}),
		"vstack":   VStack(Identity(5), Total(5)),
		"scaled":   Scaled(2.5, Identity(4)),
		"rowscale": RowScaled([]float64{1, 2, 3}, Ones(3, 2)),
		"kron":     Kron(Identity(2), RangeQueries(3, []Range1D{{Lo: 0, Hi: 2}})),
		"transp":   T(Prefix(4)),
		"wavelet":  Wavelet(16),
		"ndrange": NDRangeQueries([]int{3, 3}, []RangeND{
			{Lo: []int{0, 0}, Hi: []int{2, 2}},
			{Lo: []int{1, 1}, Hi: []int{1, 2}},
		}),
	}
	for name, m := range cases {
		s, ok := ToSparse(m, 0)
		if !ok {
			t.Errorf("%s: conversion refused", name)
			continue
		}
		if !Equal(s, m, 1e-12) {
			t.Errorf("%s: sparse conversion differs from implicit", name)
		}
	}
}

func TestToSparseRespectsBudget(t *testing.T) {
	m := Ones(100, 100)
	if _, ok := ToSparse(m, 50); ok {
		t.Fatal("budget ignored")
	}
	if _, ok := ToSparse(m, 10000); !ok {
		t.Fatal("within-budget conversion refused")
	}
}

func TestToSparseUnsupportedType(t *testing.T) {
	// A lazy product's entries are sums whose order belongs to its
	// factors' kernels; it has no exact structural listing.
	if _, ok := ToSparse(Product(Identity(4), Prefix(4)), 0); ok {
		t.Fatal("product conversion unexpectedly supported")
	}
}

// TestTripletsWavelet checks the structural Haar listing entry for
// entry, bit for bit, against the fast transform, for the signed
// transform and its Abs form, and that it honours the budget.
func TestTripletsWavelet(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 4096} {
		w := Wavelet(n)
		for name, m := range map[string]Matrix{"signed": w, "abs": w.Abs()} {
			ts, ok := Triplets(m, 0)
			if !ok {
				t.Fatalf("%s/%d: no structural form", name, n)
			}
			levels := 0
			for s := 1; s < n; s *= 2 {
				levels++
			}
			if len(ts) != n*(levels+1) {
				t.Fatalf("%s/%d: %d entries, want %d", name, n, len(ts), n*(levels+1))
			}
			// Column j of the matrix is the transform of the j-th unit vector.
			cols := make(map[int][]float64)
			for _, e := range ts {
				col, ok := cols[e.Col]
				if !ok {
					unit := make([]float64, n)
					unit[e.Col] = 1
					col = Mul(m, unit)
					cols[e.Col] = col
				}
				if math.Float64bits(col[e.Row]) != math.Float64bits(e.Val) {
					t.Fatalf("%s/%d: entry (%d,%d) = %v, transform gives %v", name, n, e.Row, e.Col, e.Val, col[e.Row])
				}
			}
			if _, ok := Triplets(m, n*(levels+1)-1); ok && n > 1 {
				t.Fatalf("%s/%d: budget ignored", name, n)
			}
		}
	}
}

func TestToSparseHierarchy(t *testing.T) {
	// The H2-style union used by the scalability experiments.
	n := 16
	m := VStack(Identity(n), RangeQueries(n, HierarchicalRanges(n, 2)))
	s, ok := ToSparse(m, 0)
	if !ok {
		t.Fatal("hierarchy conversion refused")
	}
	if !Equal(s, m, 1e-12) {
		t.Fatal("hierarchy conversion mismatch")
	}
	// nnz = n (identity) + sum of internal node widths.
	wantNNZ := n
	for _, r := range HierarchicalRanges(n, 2) {
		wantNNZ += r.Size()
	}
	if s.NNZ() != wantNNZ {
		t.Fatalf("nnz = %d, want %d", s.NNZ(), wantNNZ)
	}
}
