package inference

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Consolidated is the weighted least-squares system of a measurement
// log with repeated strategies folded together. The inference operator
// (paper §5.5) is least squares over the union of measurements, not
// over their history: blocks i that share one strategy matrix M, with
// weights wᵢ and answers yᵢ, contribute Σᵢ wᵢ²‖Mx − yᵢ‖², which equals
// W²‖Mx − ȳ‖² plus a constant for W = √Σwᵢ² and ȳ = Σwᵢ²yᵢ / Σwᵢ². One
// group per distinct matrix therefore has the normal equations of the
// full stack, and a solve costs the number of distinct strategies, not
// the log length.
//
// The right-hand side is a rows×k row-major panel per block (the
// answers and k−1 re-noised replicates), folded column by column. Fold
// is strictly sequential: the same blocks in the same order give the
// same floats, and a group folded once holds exactly that block's
// weight and panel, so a log without a repeated strategy is the stacked
// system bit for bit.
type Consolidated struct {
	domain, k int
	groups    []consGroup
	byDigest  map[uint64][]int // Digest of a group's matrix → indices into groups
	rows      int
	stack     mat.Matrix // the groups' matrices stacked; nil until System needs it
}

type consGroup struct {
	m  mat.Matrix
	w  float64   // W = √Σwᵢ² (the one block's own w while the group holds one)
	y  []float64 // ȳ, rows×k (the one block's own panel while the group holds one)
	s2 float64   // Σwᵢ²
	sy []float64 // Σwᵢ²yᵢ, rows×k; nil while the group holds one block
}

// NewConsolidated returns an empty system over a root domain of the
// given size with k right-hand-side columns.
func NewConsolidated(domain, k int) *Consolidated {
	return &Consolidated{domain: domain, k: k, byDigest: map[uint64][]int{}}
}

// Fold adds one measurement block: strategy m with Digest(m) == digest,
// row weight w and the rows×k right-hand-side panel y, which the system
// keeps. A block whose matrix equals an earlier one's entry for entry
// joins that group; any other opens a new group after the existing ones.
func (c *Consolidated) Fold(m mat.Matrix, digest uint64, w float64, y []float64) {
	rows, cols := m.Dims()
	if cols != c.domain || len(y) != rows*c.k {
		panic(fmt.Sprintf("inference: fold of a %dx%d block with %d answers into a domain-%d, %d-column system",
			rows, cols, len(y), c.domain, c.k))
	}
	w2 := w * w
	for _, gi := range c.byDigest[digest] {
		g := &c.groups[gi]
		if !sameMatrix(g.m, m) {
			continue
		}
		if g.sy == nil {
			g.sy = make([]float64, len(g.y))
			for i, v := range g.y {
				g.sy[i] = g.s2 * v
			}
		}
		g.s2 += w2
		g.w = math.Sqrt(g.s2)
		for i, v := range y {
			g.sy[i] += w2 * v
			g.y[i] = g.sy[i] / g.s2
		}
		return
	}
	c.byDigest[digest] = append(c.byDigest[digest], len(c.groups))
	c.groups = append(c.groups, consGroup{m: m, w: w, y: y, s2: w2})
	c.rows += rows
	c.stack = nil
}

// Groups returns the number of distinct strategies folded so far.
func (c *Consolidated) Groups() int { return len(c.groups) }

// System returns the consolidated system in the solvers' terms: the
// groups' matrices stacked in first-appearance order, the rows×k
// right-hand-side panel ȳ (a fresh slice the caller may scale in
// place) and the per-row weights W.
func (c *Consolidated) System() (a mat.Matrix, y, w []float64) {
	if len(c.groups) == 0 {
		panic("inference: empty consolidated system")
	}
	if c.stack == nil {
		c.stack = c.groups[0].m
		if len(c.groups) > 1 {
			ms := make([]mat.Matrix, len(c.groups))
			for i := range c.groups {
				ms[i] = c.groups[i].m
			}
			c.stack = mat.VStack(ms...)
		}
	}
	y = make([]float64, 0, c.rows*c.k)
	w = make([]float64, 0, c.rows)
	for i := range c.groups {
		g := &c.groups[i]
		y = append(y, g.y...)
		for r := len(g.y) / c.k; r > 0; r-- {
			w = append(w, g.w)
		}
	}
	return c.stack, y, w
}

// Digest hashes a matrix in explicit form (*mat.Dense or *mat.Sparse):
// its kind, shape and every stored entry. Equal matrices have equal
// digests; Fold settles a digest match by comparing entries, so a
// collision costs a compare, never a wrong group. Any other matrix type
// hashes to zero and never joins a group.
func Digest(m mat.Matrix) uint64 {
	rows, cols := m.Dims()
	var h uint64
	switch m := m.(type) {
	case *mat.Dense:
		h = mix(mix(mix(0, 1), uint64(rows)), uint64(cols))
		for _, v := range m.Data() {
			h = mix(h, math.Float64bits(v))
		}
	case *mat.Sparse:
		h = mix(mix(mix(0, 2), uint64(rows)), uint64(cols))
		for i := 0; i < rows; i++ {
			idx, vals := m.RowNNZ(i)
			h = mix(h, uint64(len(idx)))
			for j, col := range idx {
				h = mix(mix(h, uint64(col)), math.Float64bits(vals[j]))
			}
		}
	}
	return h
}

// mix folds one word into a running 64-bit hash.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// sameMatrix reports whether two explicit matrices are equal entry for
// entry (as bits: the solver's operand, not its value, is what a group
// shares). Matrices of any other type are never equal.
func sameMatrix(a, b mat.Matrix) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	switch a := a.(type) {
	case *mat.Dense:
		b, ok := b.(*mat.Dense)
		return ok && sameFloats(a.Data(), b.Data())
	case *mat.Sparse:
		b, ok := b.(*mat.Sparse)
		if !ok || a.NNZ() != b.NNZ() {
			return false
		}
		for i := 0; i < ar; i++ {
			ai, av := a.RowNNZ(i)
			bi, bv := b.RowNNZ(i)
			if len(ai) != len(bi) || !sameFloats(av, bv) {
				return false
			}
			for j, col := range ai {
				if bi[j] != col {
					return false
				}
			}
		}
		return true
	}
	return false
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
