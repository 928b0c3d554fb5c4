// Package workload builds the query workloads used across the paper's
// evaluation: random range workloads, marginals over multi-dimensional
// schemas (paper Example 7.5), and the Census Prefix(Income) workload of
// §9.2. Workloads are
// mat.Matrix values, usually implicit.
package workload

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/dataset"
	"repro/internal/mat"
)

// Identity returns the n×n identity workload (a full histogram).
func Identity(n int) mat.Matrix { return mat.Identity(n) }

// RandomRange returns k uniformly random 1-D range queries over [0, n).
func RandomRange(n, k int, rng *rand.Rand) *mat.RangeQueriesMat {
	ranges := make([]mat.Range1D, k)
	for i := range ranges {
		a, b := rng.IntN(n), rng.IntN(n)
		if a > b {
			a, b = b, a
		}
		ranges[i] = mat.Range1D{Lo: a, Hi: b}
	}
	return mat.RangeQueries(n, ranges)
}

// RandomSmallRange returns k random range queries whose width is at most
// maxWidth cells — the "small ranges" workload of the paper's Table 6.
func RandomSmallRange(n, k, maxWidth int, rng *rand.Rand) *mat.RangeQueriesMat {
	ranges := make([]mat.Range1D, k)
	for i := range ranges {
		w := 1 + rng.IntN(maxWidth)
		lo := rng.IntN(n - w + 1)
		ranges[i] = mat.Range1D{Lo: lo, Hi: lo + w - 1}
	}
	return mat.RangeQueries(n, ranges)
}

// RandomRange2D returns k random axis-aligned rectangles over an h×w grid.
func RandomRange2D(h, w, k int, rng *rand.Rand) *mat.RangeQueriesMat {
	ranges := make([]mat.RangeND, k)
	for i := range ranges {
		y1, y2 := rng.IntN(h), rng.IntN(h)
		if y1 > y2 {
			y1, y2 = y2, y1
		}
		x1, x2 := rng.IntN(w), rng.IntN(w)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		ranges[i] = mat.RangeND{Lo: []int{y1, x1}, Hi: []int{y2, x2}}
	}
	return mat.NDRangeQueries([]int{h, w}, ranges)
}

// Marginal returns the marginal workload over the schema that keeps the
// named attributes and sums out the rest, as a Kronecker product of
// Identity and Total factors (paper Example 7.5).
func Marginal(schema dataset.Schema, keep ...string) mat.Matrix {
	keepSet := map[string]bool{}
	for _, k := range keep {
		if schema.Index(k) < 0 {
			panic(fmt.Sprintf("workload: Marginal unknown attribute %q", k))
		}
		keepSet[k] = true
	}
	factors := make([]mat.Matrix, len(schema))
	for i, a := range schema {
		if keepSet[a.Name] {
			factors[i] = mat.Identity(a.Size)
		} else {
			factors[i] = mat.Total(a.Size)
		}
	}
	return mat.Kron(factors...)
}

// AllKWayMarginals returns the union of all k-way marginal workloads over
// the schema (paper Example 7.5 shows the 2-way case).
func AllKWayMarginals(schema dataset.Schema, k int) mat.Matrix {
	names := make([]string, len(schema))
	for i, a := range schema {
		names[i] = a.Name
	}
	var blocks []mat.Matrix
	combos(len(names), k, func(idx []int) {
		keep := make([]string, len(idx))
		for i, j := range idx {
			keep[i] = names[j]
		}
		blocks = append(blocks, Marginal(schema, keep...))
	})
	if len(blocks) == 0 {
		panic("workload: AllKWayMarginals produced no marginals")
	}
	return mat.VStack(blocks...)
}

// combos invokes f with each sorted k-subset of [0, n).
func combos(n, k int, f func([]int)) {
	idx := make([]int, k)
	var rec func(start, d int)
	rec = func(start, d int) {
		if d == k {
			f(idx)
			return
		}
		for i := start; i < n; i++ {
			idx[d] = i
			rec(i+1, d+1)
		}
	}
	rec(0, 0)
}

// CensusPrefixIncome builds the §9.2 Census workload: all counting
// queries (income ∈ (0, i_high], age=a, status=m, race=r, gender=g) where
// each non-income attribute is either a fixed value or <any>. It is the
// Kronecker product of Prefix(income) with, per remaining attribute, the
// union of Identity and Total.
func CensusPrefixIncome(schema dataset.Schema) mat.Matrix {
	incomeIdx := schema.Index("income")
	if incomeIdx != 0 {
		panic("workload: CensusPrefixIncome expects income as the first attribute")
	}
	factors := make([]mat.Matrix, len(schema))
	factors[0] = mat.Prefix(schema[0].Size)
	for i := 1; i < len(schema); i++ {
		sz := schema[i].Size
		factors[i] = mat.VStack(mat.Identity(sz), mat.Total(sz))
	}
	return mat.Kron(factors...)
}
