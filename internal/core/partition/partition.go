// Package partition implements EKTELO's partition-selection operators
// (paper §5.4): the data-adaptive AHP and DAWA partitions, the static
// grid/stripe/marginal partitions, and the workload-based partition
// selection of §8 with its lossless-reduction guarantees.
package partition

import (
	"fmt"

	"repro/internal/mat"
)

// Partition assigns each cell of a data vector to one of K groups. It is
// the client-side description consumed by V-ReduceByPartition and
// V-SplitByPartition.
type Partition struct {
	Groups []int // Groups[i] ∈ [0, K) is the group of cell i
	K      int
}

// FromGroups builds a Partition from a group map, renumbering groups to a
// dense [0, K) range in order of first appearance.
func FromGroups(groups []int) Partition {
	remap := map[int]int{}
	out := make([]int, len(groups))
	for i, g := range groups {
		id, ok := remap[g]
		if !ok {
			id = len(remap)
			remap[g] = id
		}
		out[i] = id
	}
	return Partition{Groups: out, K: len(remap)}
}

// Matrix returns the K×n 0/1 partition matrix P with P[g][i]=1 iff cell i
// belongs to group g (paper Definition 8.2).
func (p Partition) Matrix() *mat.Sparse {
	entries := make([]mat.Triplet, len(p.Groups))
	for i, g := range p.Groups {
		entries[i] = mat.Triplet{Row: g, Col: i, Val: 1}
	}
	return mat.NewSparse(p.K, len(p.Groups), entries)
}

// GroupSizes returns the number of cells in each group.
func (p Partition) GroupSizes() []int {
	sizes := make([]int, p.K)
	for _, g := range p.Groups {
		sizes[g]++
	}
	return sizes
}

// PInverse returns the pseudo-inverse P⁺ = Pᵀ·D⁻¹ (n×K), where D is the
// diagonal of group sizes (paper Prop. 8.3). W′ = W·P⁺ re-expresses a
// workload over the reduced domain; P⁺x′ expands a reduced data vector
// by uniform spreading.
func (p Partition) PInverse() mat.Matrix {
	sizes := p.GroupSizes()
	entries := make([]mat.Triplet, 0, len(p.Groups))
	for i, g := range p.Groups {
		if sizes[g] == 0 {
			continue
		}
		entries = append(entries, mat.Triplet{Row: i, Col: g, Val: 1 / float64(sizes[g])})
	}
	return mat.NewSparse(len(p.Groups), p.K, entries)
}

// ReduceWorkload returns W′ = W·P⁺, the workload expressed over the
// reduced domain.
func (p Partition) ReduceWorkload(w mat.Matrix) mat.Matrix {
	return mat.Product(w, p.PInverse())
}

// Stripe partitions a multi-dimensional domain (row-major with the given
// shape) into one group per combination of the non-striped attributes;
// each group is the 1-D "stripe" along dimension dim (paper §9.2).
func Stripe(shape []int, dim int) Partition {
	if dim < 0 || dim >= len(shape) {
		panic(fmt.Sprintf("partition: Stripe dim %d outside %d-dim shape", dim, len(shape)))
	}
	n, rest := 1, 1
	for k, s := range shape {
		n *= s
		if k != dim {
			rest *= s
		}
	}
	strides := rowMajorStrides(shape)
	groups := make([]int, n)
	for i := 0; i < n; i++ {
		// Group id: the flattened index over the other dimensions.
		g, mul := 0, 1
		for k := len(shape) - 1; k >= 0; k-- {
			if k == dim {
				continue
			}
			v := (i / strides[k]) % shape[k]
			g += v * mul
			mul *= shape[k]
		}
		groups[i] = g
	}
	return Partition{Groups: groups, K: rest}
}

// Marginal partitions the domain by the value of the given dimension:
// reducing by it computes the 1-D marginal histogram of that attribute
// (paper Fig. 1, PM Marginal(attr)).
func Marginal(shape []int, dim int) Partition {
	return MarginalDims(shape, dim)
}

// MarginalDims partitions the domain by the joint value of the given
// dimensions: reducing by it computes the multi-way marginal histogram
// over those attributes (group index enumerates the kept dims in the
// order given, last varying fastest).
func MarginalDims(shape []int, dims ...int) Partition {
	if len(dims) == 0 {
		panic("partition: MarginalDims with no dims")
	}
	for _, d := range dims {
		if d < 0 || d >= len(shape) {
			panic(fmt.Sprintf("partition: MarginalDims dim %d outside %d-dim shape", d, len(shape)))
		}
	}
	n, k := 1, 1
	for _, s := range shape {
		n *= s
	}
	for _, d := range dims {
		k *= shape[d]
	}
	strides := rowMajorStrides(shape)
	groups := make([]int, n)
	for i := 0; i < n; i++ {
		g := 0
		for _, d := range dims {
			g = g*shape[d] + (i/strides[d])%shape[d]
		}
		groups[i] = g
	}
	return Partition{Groups: groups, K: k}
}

// Grid partitions an h×w domain (row-major) into blocks of cellH×cellW
// cells (paper Fig. 1, PG Grid).
func Grid(h, w, cellH, cellW int) Partition {
	if cellH <= 0 || cellW <= 0 {
		panic("partition: Grid non-positive cell size")
	}
	gw := (w + cellW - 1) / cellW
	groups := make([]int, h*w)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			groups[i*w+j] = (i/cellH)*gw + j/cellW
		}
	}
	return FromGroups(groups)
}

func rowMajorStrides(shape []int) []int {
	strides := make([]int, len(shape))
	n := 1
	for k := len(shape) - 1; k >= 0; k-- {
		strides[k] = n
		n *= shape[k]
	}
	return strides
}
