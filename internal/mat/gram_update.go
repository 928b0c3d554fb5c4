package mat

// This file implements the incremental side of the Gram tier: when a
// measurement log grows by a few rows, the cached G = MᵀM is updated
// with a rank-k outer-product pass over just the new rows instead of a
// from-scratch blocked rebuild over the whole log.
//
// Determinism is the load-bearing property. GramUpdate and
// AddScaledTMatMat always run serially — never on the parallel engine —
// and accumulate every output cell in ascending row order; GramUpdate
// runs the same Dense/CSR range kernels as a serial Gram.
// A Gram matrix grown by a sequence of GramUpdate calls over row blocks
// b₀, b₁, … therefore equals, bit for bit, a single serial
// Gram/GramUpdate pass over the stacked rows: each output cell sees
// the same additions in the same order either way. That is what lets an
// incremental solve path promise bit-identical answers to its cold
// rebuild (see solver.NormalMulti) — and it is also why these functions
// must stay serial: the engine's per-worker partial-Gram merge
// reassociates the per-cell sums.

// GramUpdate accumulates g += c²·mᵀm — the Gram contribution of the
// rows of m, each scaled by c (so a block with per-row weight w folds
// in as GramUpdate(g, m, w)). g must be cols×cols and hold either zeros
// or a previously accumulated, exactly symmetric Gram state; it is kept
// exactly symmetric on return. Dense and CSR operands run the same
// serial range kernels as Gram with row weight c², so with c == 1 the
// accumulation is bit-identical to a serial Gram over the same rows
// (see the file comment). Any other matrix adds c²·GramColumns(m)
// (deterministic, but not bit-matched to the streaming kernels).
func GramUpdate(g *Dense, m Matrix, c float64) {
	_, cols := m.Dims()
	if g.rows != cols || g.cols != cols {
		panic("mat: GramUpdate output dims mismatch")
	}
	c2 := c * c
	switch t := m.(type) {
	case *Dense:
		denseGramRange(t, g.data, c2, 0, t.rows)
	case *Sparse:
		sparseGramRange(t, g.data, c2, 0, t.rows)
	default:
		gb := GramColumns(m)
		for i, v := range gb.data {
			g.data[i] += c2 * v
		}
		return
	}
	gramMirror(g.data, cols)
}

// AddScaledTMatMat accumulates dst += c·mᵀy for a rows×k row-major
// panel y into the cols×k row-major panel dst — the right-hand-side
// companion of GramUpdate (a block with per-row weight w and answer
// panel Y folds into the normal-equation RHS as
// AddScaledTMatMat(dst, m, Y, k, w·w)). Like GramUpdate it is strictly
// serial and accumulates in ascending row order, so incremental RHS
// state matches a cold rebuild over the same blocks bit for bit. Dense
// and CSR operands stream directly; other matrix types fall back to one
// TMatMat into scratch plus a scaled add.
func AddScaledTMatMat(dst []float64, m Matrix, y []float64, k int, c float64) {
	rows, cols := m.Dims()
	if k < 1 {
		panic("mat: AddScaledTMatMat needs k >= 1")
	}
	if len(y) != rows*k || len(dst) != cols*k {
		panic("mat: AddScaledTMatMat panel length mismatch")
	}
	switch t := m.(type) {
	case *Dense:
		for i := 0; i < rows; i++ {
			row := t.data[i*cols : (i+1)*cols]
			yr := y[i*k : (i+1)*k]
			for j, v := range row {
				if v == 0 {
					continue
				}
				cv := c * v
				dj := dst[j*k : (j+1)*k]
				for cc, yv := range yr {
					dj[cc] += cv * yv
				}
			}
		}
	case *Sparse:
		for i := 0; i < rows; i++ {
			yr := y[i*k : (i+1)*k]
			for p := t.rowPtr[i]; p < t.rowPtr[i+1]; p++ {
				cv := c * t.val[p]
				dj := dst[t.colIdx[p]*k : (t.colIdx[p]+1)*k]
				for cc, yv := range yr {
					dj[cc] += cv * yv
				}
			}
		}
	default:
		tmp := getScratch(cols * k)
		TMatMat(m, tmp.buf, y, k)
		for i, v := range tmp.buf {
			dst[i] += c * v
		}
		tmp.put()
	}
}
