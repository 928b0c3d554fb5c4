package mat

import "fmt"

// This file implements the range-query matrix construction of paper
// Example 7.4: any workload of (multi-dimensional) range queries is
// represented implicitly as Sparse·(Prefix⊗...⊗Prefix), where the sparse
// factor has at most 2^d entries per row, giving O(n+m) mat-vec.

// Range1D is an inclusive interval [Lo, Hi] over a 1-D domain.
type Range1D struct{ Lo, Hi int }

// Size returns the number of cells covered by the range.
func (r Range1D) Size() int { return r.Hi - r.Lo + 1 }

// RangeQueriesMat represents a workload of range queries implicitly as the
// binary product of a ±1 sparse matrix and (a Kronecker product of) Prefix
// matrices. Abs is a no-op because the materialized matrix is 0/1.
type RangeQueriesMat struct {
	shape  []int     // per-dimension domain sizes
	ranges []RangeND // the query boxes
	inner  *ProductMat
}

// RangeND is an axis-aligned inclusive box over a multi-dimensional
// domain; Lo and Hi have one entry per dimension.
type RangeND struct{ Lo, Hi []int }

// RangeQueries returns the implicit matrix of 1-D range queries over a
// domain of size n.
func RangeQueries(n int, ranges []Range1D) *RangeQueriesMat {
	nd := make([]RangeND, len(ranges))
	for i, r := range ranges {
		nd[i] = RangeND{Lo: []int{r.Lo}, Hi: []int{r.Hi}}
	}
	return NDRangeQueries([]int{n}, nd)
}

// NDRangeQueries returns the implicit matrix of axis-aligned box queries
// over the multi-dimensional domain with the given shape.
func NDRangeQueries(shape []int, ranges []RangeND) *RangeQueriesMat {
	d := len(shape)
	if d == 0 {
		panic("mat: NDRangeQueries empty shape")
	}
	n := 1
	strides := make([]int, d)
	for k := d - 1; k >= 0; k-- {
		strides[k] = n
		n *= shape[k]
	}
	prefixes := make([]Matrix, d)
	for k := 0; k < d; k++ {
		prefixes[k] = Prefix(shape[k])
	}
	var entries []Triplet
	for qi, r := range ranges {
		if len(r.Lo) != d || len(r.Hi) != d {
			panic(fmt.Sprintf("mat: NDRangeQueries range %d has %d dims, want %d", qi, len(r.Lo), d))
		}
		for k := 0; k < d; k++ {
			if r.Lo[k] < 0 || r.Hi[k] >= shape[k] || r.Lo[k] > r.Hi[k] {
				panic(fmt.Sprintf("mat: NDRangeQueries range %d dim %d [%d,%d] outside [0,%d)", qi, k, r.Lo[k], r.Hi[k], shape[k]))
			}
		}
		// Inclusion-exclusion over the 2^d corners of the box: the count of
		// the box equals Σ (-1)^{#low-sides} · PrefixCount(corner), skipping
		// corners where any low side is -1.
		for mask := 0; mask < 1<<d; mask++ {
			idx, sign, valid := 0, 1.0, true
			for k := 0; k < d; k++ {
				if mask&(1<<k) != 0 { // low side: index Lo[k]-1
					if r.Lo[k] == 0 {
						valid = false
						break
					}
					idx += (r.Lo[k] - 1) * strides[k]
					sign = -sign
				} else {
					idx += r.Hi[k] * strides[k]
				}
			}
			if valid {
				entries = append(entries, Triplet{Row: qi, Col: idx, Val: sign})
			}
		}
	}
	sparse := NewSparse(len(ranges), n, entries)
	inner := BinaryProduct(sparse, Kron(prefixes...))
	return &RangeQueriesMat{shape: append([]int(nil), shape...), ranges: ranges, inner: inner}
}

// Dims returns (number of ranges, domain size).
func (m *RangeQueriesMat) Dims() (int, int) { return m.inner.Dims() }

// MatVec evaluates the range queries against x in O(n·d + m·2^d).
func (m *RangeQueriesMat) MatVec(dst, x []float64) { m.inner.MatVec(dst, x) }

// TMatVec evaluates the transpose.
func (m *RangeQueriesMat) TMatVec(dst, x []float64) { m.inner.TMatVec(dst, x) }

// MatMat evaluates the range queries against a whole panel at once.
func (m *RangeQueriesMat) MatMat(dst, x []float64, k int) { m.inner.MatMat(dst, x, k) }

// TMatMat evaluates the transpose against a whole panel at once.
func (m *RangeQueriesMat) TMatMat(dst, x []float64, k int) { m.inner.TMatMat(dst, x, k) }

// Abs is a no-op: the materialized matrix is 0/1.
func (m *RangeQueriesMat) Abs() Matrix { return m }

// Shape returns the per-dimension domain sizes.
func (m *RangeQueriesMat) Shape() []int { return m.shape }

// Ranges returns the query boxes backing the matrix.
func (m *RangeQueriesMat) Ranges() []RangeND { return m.ranges }

// Ranges1D returns the query boxes as 1-D intervals. It panics if the
// matrix is not one-dimensional.
func (m *RangeQueriesMat) Ranges1D() []Range1D {
	if len(m.shape) != 1 {
		panic("mat: Ranges1D on multi-dimensional range matrix")
	}
	out := make([]Range1D, len(m.ranges))
	for i, r := range m.ranges {
		out[i] = Range1D{Lo: r.Lo[0], Hi: r.Hi[0]}
	}
	return out
}

// HierarchicalRanges returns the ranges of a b-ary aggregation tree over
// [0, n): the root, then each level's blocks, down to blocks of size > 1.
// Leaves (unit-length ranges) are excluded; hierarchical strategies union
// this matrix with Identity (paper §7.5).
func HierarchicalRanges(n, branching int) []Range1D {
	if branching < 2 {
		panic("mat: HierarchicalRanges branching must be >= 2")
	}
	var out []Range1D
	level := []Range1D{{Lo: 0, Hi: n - 1}}
	for len(level) > 0 {
		var next []Range1D
		for _, r := range level {
			if r.Size() <= 1 {
				continue
			}
			out = append(out, r)
			// Split r into `branching` nearly equal children.
			size := r.Size()
			base := size / branching
			rem := size % branching
			lo := r.Lo
			for c := 0; c < branching && lo <= r.Hi; c++ {
				sz := base
				if c < rem {
					sz++
				}
				if sz == 0 {
					continue
				}
				next = append(next, Range1D{Lo: lo, Hi: lo + sz - 1})
				lo += sz
			}
		}
		level = next
	}
	return out
}
