package mat

// This file implements the incremental side of the Gram tier: when a
// measurement log grows by a few rows, the cached G = MᵀM is updated
// with a rank-k outer-product pass over just the new rows instead of a
// from-scratch blocked rebuild over the whole log.
//
// Determinism is the load-bearing property. GramUpdate and
// AddScaledTMatMat always run the serial Dense/CSR kernels — never the
// parallel engine — and those kernels accumulate every output cell in
// ascending row order, exactly like the serial kernels behind Gram.
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
// exactly symmetric on return. With c == 1 the accumulation is
// bit-identical to the serial Gram kernels, so growing G
// incrementally matches a cold serial rebuild to the last bit (see the
// file comment). Dense and CSR operands use the blocked serial kernels;
// any other matrix type falls back to Gram(m) plus a scaled elementwise
// add (deterministic, but not bit-matched to the streaming kernels).
func GramUpdate(g *Dense, m Matrix, c float64) {
	_, cols := m.Dims()
	if g.rows != cols || g.cols != cols {
		panic("mat: GramUpdate output dims mismatch")
	}
	c2 := c * c
	switch t := m.(type) {
	case *Dense:
		denseGramUpdateRange(t, g.data, c2, 0, t.rows)
	case *Sparse:
		sparseGramUpdateRange(t, g.data, c2, 0, t.rows)
	default:
		gb := Gram(m)
		for i, v := range gb.data {
			g.data[i] += c2 * v
		}
		return
	}
	gramMirror(g.data, cols)
}

// denseGramUpdateRange is denseGramRange with every row's contribution
// scaled by c2, accumulating on top of g instead of requiring it
// zeroed. The per-cell addition order (ascending rows) and the
// upper-triangle + stray-diagonal-block write pattern are identical to
// denseGramRange, and (c2·a)·v with c2 == 1 is exactly a·v, so the
// caller's gramMirror leaves a state bit-identical to the serial
// Gram path over the same rows.
func denseGramUpdateRange(d *Dense, g []float64, c2 float64, lo, hi int) {
	c := d.cols
	if c == 0 {
		return
	}
	kb := gramKB(c)
	for bs := lo; bs < hi; bs += kb {
		be := bs + kb
		if be > hi {
			be = hi
		}
		j1 := 0
		for ; j1+3 < c; j1 += 4 {
			g0 := g[j1*c+j1 : (j1+1)*c]
			g1 := g[(j1+1)*c+j1 : (j1+2)*c]
			g2 := g[(j1+2)*c+j1 : (j1+3)*c]
			g3 := g[(j1+3)*c+j1 : (j1+4)*c]
			for r := bs; r < be; r++ {
				row := d.data[r*c : (r+1)*c]
				a0, a1, a2, a3 := c2*row[j1], c2*row[j1+1], c2*row[j1+2], c2*row[j1+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				tail := row[j1:]
				for t, v := range tail {
					g0[t] += a0 * v
					g1[t] += a1 * v
					g2[t] += a2 * v
					g3[t] += a3 * v
				}
			}
		}
		for ; j1 < c; j1++ {
			g0 := g[j1*c+j1 : (j1+1)*c]
			for r := bs; r < be; r++ {
				row := d.data[r*c : (r+1)*c]
				a0 := c2 * row[j1]
				if a0 == 0 {
					continue
				}
				tail := row[j1:]
				for t, v := range tail {
					g0[t] += a0 * v
				}
			}
		}
	}
}

// sparseGramUpdateRange is sparseGramRange with scaled contributions,
// accumulating on top of g. Same determinism argument as the dense
// kernel: per-cell adds arrive in ascending row order, and c2 == 1
// reproduces the unscaled kernel bit for bit.
func sparseGramUpdateRange(s *Sparse, g []float64, c2 float64, lo, hi int) {
	c := s.cols
	for i := lo; i < hi; i++ {
		klo, khi := s.rowPtr[i], s.rowPtr[i+1]
		for k1 := klo; k1 < khi; k1++ {
			v1 := c2 * s.val[k1]
			grow := g[s.colIdx[k1]*c:]
			cols := s.colIdx[k1:khi]
			vals := s.val[k1:khi]
			for t, j2 := range cols {
				grow[j2] += v1 * vals[t]
			}
		}
	}
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
