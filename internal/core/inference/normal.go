package inference

import "repro/internal/mat"

// NormalEquations is the weighted normal-equation state of a
// measurement log: G = Σᵢ wᵢ²·MᵢᵀMᵢ and B = Σᵢ wᵢ²·MᵢᵀYᵢ over its
// blocks, each Yᵢ a rows×k row-major right-hand-side panel. It takes
// blocks through the same Fold as Consolidated, so one log-ordered fold
// can feed either system. Both accumulators are serial and add per
// cell in ascending row order (mat.GramUpdate, mat.AddScaledTMatMat),
// so the same blocks in the same order give the same bits whether they
// were folded one at a time or all at once.
type NormalEquations struct {
	k int
	G *mat.Dense // domain×domain
	B []float64  // domain×k, row-major
}

// NewNormalEquations returns an empty (all-zero) state over a root
// domain of the given size with k right-hand-side columns.
func NewNormalEquations(domain, k int) *NormalEquations {
	return &NormalEquations{k: k, G: mat.NewDense(domain, domain, nil), B: make([]float64, domain*k)}
}

// Fold adds one measurement block: strategy m, row weight w and the
// rows×k right-hand-side panel y, which is not kept. The digest is
// unused: every block enters G and B on its own, repeats included.
func (e *NormalEquations) Fold(m mat.Matrix, _ uint64, w float64, y []float64) {
	mat.GramUpdate(e.G, m, w)
	mat.AddScaledTMatMat(e.B, m, y, e.k, w*w)
}
