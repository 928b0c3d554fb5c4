package mat

import "repro/internal/vec"

// This file computes Gram matrices G = MᵀM. Programs take the Gram of a
// materialised operand: solver.DirectLS (Figure 5's direct inference)
// of a dense strategy, and the normal-equation fold (GramUpdate) of
// dense or CSR measurement blocks. So there are two kernels, one per
// storage, and everything else goes through the generic column build:
//
//	Gram(Dense)  = blocked upper-triangular panel product (see below)
//	Gram(CSR)    = symmetric row outer products, O(Σ nnz(rowᵢ)²/2)
//	Gram(other)  = GramColumns, cols·(Time(M) + Time(Mᵀ))
//
// # Blocked Dense/CSR kernels
//
// The Dense kernel is a blocked SYRK: rows are consumed in K-blocks
// sized to keep the operand block cache-resident (gramKB), and within a
// block the output is built four Gram rows at a time — each source row
// streamed from the block feeds four accumulator rows restricted to the
// upper triangle (j₂ ≥ j₁), an inner loop that is contiguous on every
// operand and auto-vectorizes. Compared to the row-at-a-time rank-1
// build this halves the flops (symmetry) and cuts the G traffic from
// rows·cols² to (rows/KB)·cols²/2; the lower triangle is mirrored once
// at the end. The CSR kernel applies the same symmetry: each row's
// sorted nonzeros contribute only their upper outer-product half.
//
// Both kernels take a row weight c2 and accumulate on top of g: Gram
// calls them with c2 = 1, GramUpdate with its own. 1·x is exact, so
// the two entry points agree bit for bit on the same rows.
//
// The Dense Gram runs through the parallel engine when the estimated
// work clears the threshold: workers process disjoint row ranges into
// private partial Grams that the engine merges, and the mirror runs
// once after the merge. The CSR Gram is serial, so its bits do not
// depend on the engine's width. With warm pools both allocate nothing
// beyond the output matrix.

// Gram returns MᵀM as a dense matrix: the blocked kernel for Dense, the
// serial CSR kernel for Sparse, and GramColumns for every other matrix.
func Gram(m Matrix) *Dense {
	switch t := m.(type) {
	case *Dense:
		g := NewDense(t.cols, t.cols, nil)
		denseGramInto(g, t)
		return g
	case *Sparse:
		g := NewDense(t.cols, t.cols, nil)
		GramUpdate(g, t, 1)
		return g
	}
	return GramColumns(m)
}

// GramColumns computes MᵀM column by column through the primitive
// methods: cols mat-vec plus transpose mat-vec pairs. It is the generic
// fallback and the baseline the blocked kernels are benchmarked against
// (BenchmarkGram* in the root bench_test.go).
func GramColumns(m Matrix) *Dense {
	r, c := m.Dims()
	g := NewDense(c, c, nil)
	ej := getScratch(c)
	tmp := getScratch(r)
	vec.Zero(ej.buf)
	for j := 0; j < c; j++ {
		ej.buf[j] = 1
		m.MatVec(tmp.buf, ej.buf)
		ej.buf[j] = 0
		m.TMatVec(g.data[j*c:(j+1)*c], tmp.buf)
	}
	ej.put()
	tmp.put()
	return g
}

// gramKB returns the K-block row count for the blocked Dense kernel:
// blocks of about 256 KiB of operand rows stay cache-resident while the
// four hot Gram rows live in L1.
func gramKB(cols int) int {
	if cols <= 0 {
		return 64
	}
	kb := (1 << 15) / cols
	if kb < 8 {
		kb = 8
	}
	if kb > 256 {
		kb = 256
	}
	return kb
}

// denseGramInto computes g = dᵀd with the blocked symmetric kernel,
// parallelizing over row ranges with per-worker partial Grams.
func denseGramInto(g *Dense, d *Dense) {
	c := d.cols
	// Merging per-worker partial Grams costs workers·cols²; only go
	// parallel when the row work clearly dominates it.
	if parallelizable(d.rows*c*c/2) && d.rows >= 2*gramKB(c) && d.rows >= 8*Parallelism() {
		t := newTask()
		t.fn, t.m, t.dst = denseGramKernel, d, g.data
		t.auxLen = c * c
		parRun(t, d.rows, gramKB(c))
		t.release()
	} else {
		vec.Zero(g.data)
		denseGramRange(d, g.data, 1, 0, d.rows)
	}
	gramMirror(g.data, c)
}

func denseGramKernel(t *task, worker, lo, hi int) {
	buf := t.dst
	if worker > 0 {
		buf = t.aux[worker-1]
	}
	denseGramRange(t.m.(*Dense), buf, 1, lo, hi)
}

// denseGramRange accumulates the upper triangle of Σᵢ c2·rowᵢᵀrowᵢ over
// rows [lo, hi) on top of g. Rows are consumed in cache-sized K-blocks;
// within a block the j₁ loop is unrolled four wide so each streamed
// source row updates four Gram rows. Every output cell sees its adds in
// ascending row order.
func denseGramRange(d *Dense, g []float64, c2 float64, lo, hi int) {
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

// gramMirror copies the upper triangle of the n×n matrix g onto the
// lower triangle. The 4-wide quads of the blocked kernel also accumulate
// the few lower-triangle cells inside each diagonal 4×4 block; those
// carry the same value the mirror writes, so overwriting is sound.
func gramMirror(g []float64, n int) {
	for i := 0; i < n; i++ {
		row := g[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			g[j*n+i] = row[j]
		}
	}
}

// sparseGramRange accumulates the upper-triangular row outer products
// c2·rowᵢᵀrowᵢ of rows [lo, hi) on top of g. Column indices are sorted
// within each CSR row, so starting the inner loop at k1 touches only
// cells with j₂ ≥ j₁; every output cell sees its adds in ascending row
// order.
func sparseGramRange(s *Sparse, g []float64, c2 float64, lo, hi int) {
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
