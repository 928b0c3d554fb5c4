package mat

import (
	"math"
	"math/bits"
)

// This file provides structure-aware conversion of implicit matrices to
// explicit coordinate form, used by the serve tier to canonicalise a
// commit's strategy and by the representation-comparison experiments
// (paper §10.2: dense vs sparse vs implicit). Conversion walks the
// implicit constructors instead of materializing through mat-vec
// products, so it costs O(nnz).

// ToSparse converts m to an explicit CSR matrix when a structure-aware
// conversion exists and the result has at most maxNNZ stored entries
// (maxNNZ <= 0 means unlimited). It returns false when the matrix type
// has no efficient explicit form or the budget is exceeded.
func ToSparse(m Matrix, maxNNZ int) (*Sparse, bool) {
	tri, ok := Triplets(m, maxNNZ)
	if !ok {
		return nil, false
	}
	r, c := m.Dims()
	return NewSparse(r, c, tri), true
}

// Tripleter is a matrix type outside this package that can list its
// entries as Triplets does.
type Tripleter interface {
	Triplets(maxNNZ int) ([]Triplet, bool)
}

// Triplets returns the coordinate entries of m, each value computed as
// the matrix's own products compute it, or false when the structure is
// not efficiently convertible or holds more than maxNNZ entries
// (maxNNZ <= 0 means unlimited). Entries may be explicit zeros (a zero
// scale factor) and are in no particular order.
func Triplets(m Matrix, maxNNZ int) ([]Triplet, bool) {
	within := func(n int) bool { return maxNNZ <= 0 || n <= maxNNZ }
	switch t := m.(type) {
	case *Sparse:
		if !within(t.NNZ()) {
			return nil, false
		}
		var out []Triplet
		for i := 0; i < t.rows; i++ {
			cols, vals := t.RowNNZ(i)
			for k, c := range cols {
				out = append(out, Triplet{Row: i, Col: c, Val: vals[k]})
			}
		}
		return out, true
	case *Dense:
		r, c := t.Dims()
		if !within(r * c) {
			return nil, false
		}
		var out []Triplet
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if v := t.At(i, j); v != 0 {
					out = append(out, Triplet{Row: i, Col: j, Val: v})
				}
			}
		}
		return out, true
	case *IdentityMat:
		if !within(t.n) {
			return nil, false
		}
		out := make([]Triplet, t.n)
		for i := range out {
			out[i] = Triplet{Row: i, Col: i, Val: 1}
		}
		return out, true
	case *DiagMat:
		if !within(len(t.d)) {
			return nil, false
		}
		var out []Triplet
		for i, v := range t.d {
			if v != 0 {
				out = append(out, Triplet{Row: i, Col: i, Val: v})
			}
		}
		return out, true
	case *OnesMat:
		if !within(t.r * t.c) {
			return nil, false
		}
		out := make([]Triplet, 0, t.r*t.c)
		for i := 0; i < t.r; i++ {
			for j := 0; j < t.c; j++ {
				out = append(out, Triplet{Row: i, Col: j, Val: 1})
			}
		}
		return out, true
	case *PrefixMat:
		if !within(t.n * (t.n + 1) / 2) {
			return nil, false
		}
		var out []Triplet
		for i := 0; i < t.n; i++ {
			for j := 0; j <= i; j++ {
				out = append(out, Triplet{Row: i, Col: j, Val: 1})
			}
		}
		return out, true
	case *SuffixMat:
		if !within(t.n * (t.n + 1) / 2) {
			return nil, false
		}
		var out []Triplet
		for i := 0; i < t.n; i++ {
			for j := i; j < t.n; j++ {
				out = append(out, Triplet{Row: i, Col: j, Val: 1})
			}
		}
		return out, true
	case *RangeQueriesMat:
		return rangeTriplets(t, maxNNZ)
	case *VStackMat:
		subs, total := make([][]Triplet, len(t.blocks)), 0
		for i, b := range t.blocks {
			var ok bool
			if subs[i], ok = Triplets(b, maxNNZ); !ok || !within(total+len(subs[i])) {
				return nil, false
			}
			total += len(subs[i])
		}
		out := make([]Triplet, 0, total)
		off := 0
		for i, b := range t.blocks {
			for _, e := range subs[i] {
				out = append(out, Triplet{Row: e.Row + off, Col: e.Col, Val: e.Val})
			}
			br, _ := b.Dims()
			off += br
		}
		return out, true
	case *ScaledMat:
		sub, ok := Triplets(t.m, maxNNZ)
		if !ok {
			return nil, false
		}
		for i := range sub {
			sub[i].Val *= t.c
		}
		return sub, true
	case *rowScaledMat:
		sub, ok := Triplets(t.m, maxNNZ)
		if !ok {
			return nil, false
		}
		for i := range sub {
			sub[i].Val *= t.w[sub[i].Row]
		}
		return sub, true
	case *TransposeMat:
		sub, ok := Triplets(t.m, maxNNZ)
		if !ok {
			return nil, false
		}
		for i := range sub {
			sub[i].Row, sub[i].Col = sub[i].Col, sub[i].Row
		}
		return sub, true
	case *KroneckerMat:
		a, ok := Triplets(t.a, maxNNZ)
		if !ok {
			return nil, false
		}
		b, ok := Triplets(t.b, maxNNZ)
		if !ok {
			return nil, false
		}
		if maxNNZ > 0 && len(a)*len(b) > maxNNZ {
			return nil, false
		}
		_, bc := t.b.Dims()
		br, _ := t.b.Dims()
		out := make([]Triplet, 0, len(a)*len(b))
		for _, ea := range a {
			for _, eb := range b {
				out = append(out, Triplet{
					Row: ea.Row*br + eb.Row,
					Col: ea.Col*bc + eb.Col,
					Val: ea.Val * eb.Val,
				})
			}
		}
		return out, true
	case *WaveletMat:
		return t.triplets(maxNNZ)
	case Tripleter:
		return t.Triplets(maxNNZ)
	default:
		return nil, false
	}
}

// triplets lists the Haar transform in MatVec's output layout: row 0
// averages all n cells, and the rows [length/2, length) of the stage
// that halves length-`length` averages each cover 2w = 2n/length cells,
// the second w negated in the signed transform. An entry is the stage
// coefficient (a power of two, so exact) once per stage on its path.
func (m *WaveletMat) triplets(maxNNZ int) ([]Triplet, bool) {
	levels := bits.Len(uint(m.n)) - 1
	if maxNNZ > 0 && m.n*(levels+1) > maxNNZ {
		return nil, false
	}
	c, signed := m.coeffs()
	v := math.Pow(c, float64(levels))
	out := make([]Triplet, 0, m.n*(levels+1))
	for j := 0; j < m.n; j++ {
		out = append(out, Triplet{Row: 0, Col: j, Val: v})
	}
	for length := 2; length <= m.n; length, v = 2*length, v/c {
		w := m.n / length
		for r := length / 2; r < length; r++ {
			for j := 0; j < 2*w; j++ {
				e := Triplet{Row: r, Col: (2*r-length)*w + j, Val: v}
				if signed && j >= w {
					e.Val = -v
				}
				out = append(out, e)
			}
		}
	}
	return out, true
}

// rangeTriplets expands a range-query matrix into one entry per covered
// cell.
func rangeTriplets(m *RangeQueriesMat, maxNNZ int) ([]Triplet, bool) {
	shape := m.Shape()
	strides := make([]int, len(shape))
	n := 1
	for k := len(shape) - 1; k >= 0; k-- {
		strides[k] = n
		n *= shape[k]
	}
	total := 0
	for _, box := range m.Ranges() {
		cells := 1
		for k, lo := range box.Lo {
			cells *= box.Hi[k] - lo + 1
		}
		total += cells
	}
	if maxNNZ > 0 && total > maxNNZ {
		return nil, false
	}
	out := make([]Triplet, 0, total)
	idx := make([]int, len(shape))
	for qi, box := range m.Ranges() {
		// Iterate the box cells.
		copy(idx, box.Lo)
		for {
			cell := 0
			for k, v := range idx {
				cell += v * strides[k]
			}
			out = append(out, Triplet{Row: qi, Col: cell, Val: 1})
			// Advance the multi-index.
			k := len(idx) - 1
			for k >= 0 {
				idx[k]++
				if idx[k] <= box.Hi[k] {
					break
				}
				idx[k] = box.Lo[k]
				k--
			}
			if k < 0 {
				break
			}
		}
	}
	return out, true
}
