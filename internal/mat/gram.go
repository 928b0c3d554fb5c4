package mat

import "repro/internal/vec"

// This file computes Gram matrices G = MᵀM with structure-aware fast
// paths. The generic fallback costs cols·(Time(M) + Time(Mᵀ)); the fast
// paths exploit the combinator algebra instead:
//
//	Gram(A⊗B)    = Gram(A) ⊗ Gram(B)       (expanded densely)
//	Gram(VStack) = Σ Gram(blockᵢ)
//	Gram(c·M)    = c²·Gram(M)
//	Gram(A·B)    = Bᵀ·Gram(A)·B            (A CSR; two TMatMat panel passes)
//	Gram(CSR)    = symmetric row outer products, O(Σ nnz(rowᵢ)²/2)
//	Gram(Dense)  = blocked upper-triangular panel product (see below)
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
// Both kernels run through the parallel engine when the estimated work
// clears the threshold: workers process disjoint row ranges into private
// partial Grams that the engine merges, and the mirror runs once after
// the merge. With warm pools the Dense and CSR kernels allocate nothing
// beyond the output matrix.
//
// solver.DirectLS and the strategy-scoring layers call Gram on exactly
// these shapes, so the dispatch removes the O(cols·matvec) bottleneck
// the paper's Figure 5 attributes to direct inference.

// Gram returns MᵀM as a dense matrix, dispatching to a structure-aware
// fast path when one applies.
func Gram(m Matrix) *Dense {
	switch t := m.(type) {
	case *IdentityMat:
		g := NewDense(t.n, t.n, nil)
		for i := 0; i < t.n; i++ {
			g.data[i*t.n+i] = 1
		}
		return g
	case *DiagMat:
		n := len(t.d)
		g := NewDense(n, n, nil)
		for i, v := range t.d {
			g.data[i*n+i] = v * v
		}
		return g
	case *ScaledMat:
		g := Gram(t.m)
		c2 := t.c * t.c
		for i := range g.data {
			g.data[i] *= c2
		}
		return g
	case *TransposeMat:
		// Gram(Mᵀ) = MMᵀ has no combinator shortcut; fall through to the
		// generic path unless the child is dense.
		if d, ok := t.m.(*Dense); ok {
			return denseRowGram(d)
		}
	case *Sparse:
		g := NewDense(t.cols, t.cols, nil)
		sparseGramInto(g, t)
		return g
	case *Dense:
		g := NewDense(t.cols, t.cols, nil)
		denseGramInto(g, t)
		return g
	case *VStackMat:
		g := Gram(t.blocks[0])
		for _, b := range t.blocks[1:] {
			gb := Gram(b)
			for i, v := range gb.data {
				g.data[i] += v
			}
		}
		return g
	case *KroneckerMat:
		return denseKron(Gram(t.a), Gram(t.b))
	case *RangeQueriesMat:
		return rangeGram(t)
	case *ProductMat:
		// Gram(A·B) = Bᵀ·Gram(A)·B when Gram(A) has a direct build (the
		// range-query construction: A is the sparse corner factor). The
		// sandwich costs two TMatMat panel passes over B; guard against
		// inner dimensions that would dwarf the output.
		if a, ok := t.a.(*Sparse); ok {
			_, bc := t.b.Dims()
			if a.cols <= 2*bc {
				return productGramCSR(a, t.b)
			}
		}
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
		denseGramRange(d, g.data, 0, d.rows)
	}
	gramMirror(g.data, c)
}

func denseGramKernel(t *task, worker, lo, hi int) {
	buf := t.dst
	if worker > 0 {
		buf = t.aux[worker-1]
	}
	denseGramRange(t.m.(*Dense), buf, lo, hi)
}

// denseGramRange accumulates the upper triangle of Σᵢ rowᵢᵀrowᵢ over
// rows [lo, hi) into g, which the caller must have zeroed. Rows are
// consumed in cache-sized K-blocks; within a block the j₁ loop is
// unrolled four wide so each streamed source row updates four Gram rows.
func denseGramRange(d *Dense, g []float64, lo, hi int) {
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
				a0, a1, a2, a3 := row[j1], row[j1+1], row[j1+2], row[j1+3]
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
				a0 := row[j1]
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

// sparseGramInto computes g = sᵀs from the CSR structure: each row
// contributes the upper half of the outer product of its (sorted)
// nonzeros, O(Σ nnz(rowᵢ)²/2) total, mirrored once at the end. Large
// matrices split their rows across the engine with per-worker partial
// Grams.
func sparseGramInto(g *Dense, s *Sparse) {
	c := s.cols
	// The outer-product work is Σ nnz(rowᵢ)²/2 ≈ nnz·avg/2; merging the
	// per-worker partial Grams costs workers·cols², so the parallel path
	// must clear that bar by a wide margin to pay off.
	work := len(s.val) * s.avgRowNNZ() / 2
	if parallelizable(work) && s.rows >= 4 && work >= 4*Parallelism()*c*c {
		t := newTask()
		t.fn, t.m, t.dst = sparseGramKernel, s, g.data
		t.auxLen = c * c
		parRun(t, s.rows, grainRows(s.avgRowNNZ()*s.avgRowNNZ()/2+1))
		t.release()
	} else {
		vec.Zero(g.data)
		sparseGramRange(s, g.data, 0, s.rows)
	}
	gramMirror(g.data, c)
}

func sparseGramKernel(t *task, worker, lo, hi int) {
	buf := t.dst
	if worker > 0 {
		buf = t.aux[worker-1]
	}
	sparseGramRange(t.m.(*Sparse), buf, lo, hi)
}

// sparseGramRange accumulates the upper-triangular row outer products of
// rows [lo, hi) into g, which the caller must have zeroed. Column
// indices are sorted within each CSR row, so starting the inner loop at
// k1 touches only cells with j₂ ≥ j₁.
func sparseGramRange(s *Sparse, g []float64, lo, hi int) {
	c := s.cols
	for i := lo; i < hi; i++ {
		klo, khi := s.rowPtr[i], s.rowPtr[i+1]
		for k1 := klo; k1 < khi; k1++ {
			v1 := s.val[k1]
			grow := g[s.colIdx[k1]*c:]
			cols := s.colIdx[k1:khi]
			vals := s.val[k1:khi]
			for t, j2 := range cols {
				grow[j2] += v1 * vals[t]
			}
		}
	}
}

// productGramCSR computes Gram(A·B) = Bᵀ·Gram(A)·B for a CSR left
// factor: Gram(A) comes from the direct CSR build, then the sandwich is
// two TMatMat panel passes over B (C = Bᵀ·G_A, then Bᵀ·Cᵀ, which equals
// the symmetric result exactly because G_A is mirrored to exact
// symmetry). This is the DirectLS fast path for RangeQueriesMat
// strategies, whose implicit form is Sparse·(Prefix⊗...⊗Prefix).
func productGramCSR(a *Sparse, b Matrix) *Dense {
	as := a.cols
	_, bc := b.Dims()
	ga := Gram(a) // as×as, exactly symmetric
	cbuf := getScratch(bc * as)
	TMatMat(b, cbuf.buf, ga.data, as) // C = Bᵀ·G_A (bc×as)
	ct := getScratch(as * bc)
	transposeInto(ct.buf, cbuf.buf, bc, as)
	cbuf.put()
	g := NewDense(bc, bc, nil)
	TMatMat(b, g.data, ct.buf, bc) // Bᵀ·Cᵀ = Bᵀ·G_A·B
	ct.put()
	return g
}

// rangeGram computes the Gram of a range-query workload W = S·K (S the
// ±1 corner factor, K = Prefix⊗...⊗Prefix) without any panel algebra:
// Gram(W) = Kᵀ·(SᵀS)·K, and because every prefix-row outer product is an
// all-ones rectangle, sandwiching by K is exactly a suffix sum of SᵀS
// along each of the 2d index axes:
//
//	Gram(W)[a, b] = Σ_{i ⪰ a, j ⪰ b} (SᵀS)[i, j]   (⪰ per dimension)
//
// So the build is: scatter the corner outer products (O(m·4^d) entries)
// into the zeroed n×n output, then run 2d in-place suffix passes — each
// one streaming pass of contiguous adds over the n² cells. Total cost
// O(m·4^d + d·n²) with d·n² sequential memory traffic, versus
// O(n·(n + m·2^d)) for the column build; this is the DirectLS fast path
// for range-query strategies.
func rangeGram(rq *RangeQueriesMat) *Dense {
	s, ok := rq.inner.a.(*Sparse)
	if !ok {
		return Gram(rq.inner)
	}
	n := s.cols
	g := NewDense(n, n, nil)
	// Corner outer products: both halves, so the suffix passes see the
	// full (symmetric) SᵀS.
	for i := 0; i < s.rows; i++ {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		for k1 := lo; k1 < hi; k1++ {
			v1 := s.val[k1]
			grow := g.data[s.colIdx[k1]*n:]
			for k2 := lo; k2 < hi; k2++ {
				grow[s.colIdx[k2]] += v1 * s.val[k2]
			}
		}
	}
	// Suffix passes over every axis of the 2d-dimensional index space:
	// the row and column indices each decompose per dimension with
	// strides in domain cells; the flat n² array has the row axes at
	// stride·n and the column axes at stride.
	d := len(rq.shape)
	stride := 1
	for k := d - 1; k >= 0; k-- {
		suffixAxisPar(g.data, rq.shape[k], stride, n)   // column-index axis k
		suffixAxisPar(g.data, rq.shape[k], stride*n, n) // row-index axis k
		stride *= rq.shape[k]
	}
	return g
}

// suffixAxis replaces x with its suffix sums along the axis of the given
// size and stride: x[..., i, ...] += x[..., i+1, ...] from high to low.
// The inner loop is a contiguous stride-length add.
func suffixAxis(x []float64, size, stride int) {
	block := size * stride
	for base := 0; base < len(x); base += block {
		for idx := size - 2; idx >= 0; idx-- {
			cur := x[base+idx*stride : base+(idx+1)*stride]
			next := x[base+(idx+1)*stride : base+(idx+2)*stride]
			for t, v := range next {
				cur[t] += v
			}
		}
	}
}

// suffixAxisPar is suffixAxis for the n×n Gram layout, parallelized
// over independent outer blocks through the engine. The sequential
// dependency of a suffix pass runs only along the summed axis, so the
// n² cells split into independent lanes two ways:
//
//   - column-index axes (stride < n): every block lies inside one Gram
//     row (size·stride divides n), so workers take disjoint row ranges;
//   - row-index axes (stride a multiple of n): the pass adds whole
//     row-groups, so workers take disjoint column ranges, each chunk
//     still a contiguous add.
//
// Per-cell addition order is identical to the serial pass in both
// splits, so parallel results are bit-identical. Each pass is one
// streaming traversal of the n² cells; below the engine threshold the
// serial loop runs unchanged.
func suffixAxisPar(x []float64, size, stride, n int) {
	if size < 2 {
		return
	}
	if !parallelizable(len(x)) {
		suffixAxis(x, size, stride)
		return
	}
	grain := grainRows(n)
	switch {
	case stride < n && n%(size*stride) == 0:
		t := newTask()
		t.fn, t.dst = suffixColAxisKernel, x
		t.args = [3]int{size, stride, n}
		parRun(t, n, grain)
		t.release()
	case stride >= n && stride%n == 0:
		t := newTask()
		t.fn, t.dst = suffixRowAxisKernel, x
		t.args = [3]int{size, stride, n}
		parRun(t, n, grain)
		t.release()
	default:
		suffixAxis(x, size, stride)
	}
}

// suffixColAxisKernel runs a column-index-axis suffix pass over Gram
// rows [lo, hi): each row contains n/(size·stride) independent blocks.
func suffixColAxisKernel(t *task, _, lo, hi int) {
	x := t.dst
	size, stride, n := t.args[0], t.args[1], t.args[2]
	block := size * stride
	for r := lo; r < hi; r++ {
		rowEnd := (r + 1) * n
		for base := r * n; base < rowEnd; base += block {
			for idx := size - 2; idx >= 0; idx-- {
				cur := x[base+idx*stride : base+(idx+1)*stride]
				next := x[base+(idx+1)*stride : base+(idx+2)*stride]
				for t2, v := range next {
					cur[t2] += v
				}
			}
		}
	}
}

// suffixRowAxisKernel runs a row-index-axis suffix pass restricted to
// Gram columns [lo, hi): the stride is a multiple of n, so each
// stride-length segment decomposes into whole Gram rows whose [lo, hi)
// slices are updated independently of all other columns.
func suffixRowAxisKernel(t *task, _, lo, hi int) {
	x := t.dst
	size, stride, n := t.args[0], t.args[1], t.args[2]
	block := size * stride
	w := hi - lo
	for base := 0; base < len(x); base += block {
		for idx := size - 2; idx >= 0; idx-- {
			off := base + idx*stride
			for sub := 0; sub < stride; sub += n {
				cur := x[off+sub+lo : off+sub+lo+w]
				next := x[off+stride+sub+lo : off+stride+sub+lo+w]
				for t2, v := range next {
					cur[t2] += v
				}
			}
		}
	}
}

// transposeInto writes the transpose of the r×c row-major matrix src
// into dst (c×r row-major).
func transposeInto(dst, src []float64, r, c int) {
	for i := 0; i < r; i++ {
		row := src[i*c : (i+1)*c]
		for j, v := range row {
			dst[j*r+i] = v
		}
	}
}

// denseRowGram computes DDᵀ (the Gram of the transpose) densely.
func denseRowGram(d *Dense) *Dense {
	g := NewDense(d.rows, d.rows, nil)
	for i1 := 0; i1 < d.rows; i1++ {
		r1 := d.data[i1*d.cols : (i1+1)*d.cols]
		for i2 := i1; i2 < d.rows; i2++ {
			r2 := d.data[i2*d.cols : (i2+1)*d.cols]
			var s float64
			for j, v := range r1 {
				s += v * r2[j]
			}
			g.data[i1*d.rows+i2] = s
			g.data[i2*d.rows+i1] = s
		}
	}
	return g
}

// denseKron expands the Kronecker product of two dense matrices. Each
// row of a owns the disjoint out-row block [i1·b.rows, (i1+1)·b.rows),
// so the expansion splits over a's rows through the engine — every
// output cell is written exactly once by exactly one worker, making the
// parallel result bit-identical to the serial loop. This was the last
// serial streaming loop on the Gram fast path (Gram(A⊗B) expands
// Gram(A) ⊗ Gram(B) densely).
func denseKron(a, b *Dense) *Dense {
	out := NewDense(a.rows*b.rows, a.cols*b.cols, nil)
	if parallelizable(a.rows*a.cols*b.rows*b.cols) && a.rows >= 2 {
		t := newTask()
		t.fn, t.dst, t.x, t.z = denseKronKernel, out.data, a.data, b.data
		t.args = [3]int{a.cols, b.rows, b.cols}
		parRun(t, a.rows, grainRows(a.cols*b.rows*b.cols))
		t.release()
		return out
	}
	denseKronRange(out.data, a.data, b.data, a.cols, b.rows, b.cols, 0, a.rows)
	return out
}

func denseKronKernel(t *task, _, lo, hi int) {
	denseKronRange(t.dst, t.x, t.z, t.args[0], t.args[1], t.args[2], lo, hi)
}

// denseKronRange expands a-rows [lo, hi) of the Kronecker product:
// out[(i1·br+i2)·(ac·bc) + j1·bc + j2] = a[i1,j1]·b[i2,j2].
func denseKronRange(out, a, b []float64, ac, br, bc, lo, hi int) {
	oc := ac * bc
	for i1 := lo; i1 < hi; i1++ {
		for j1 := 0; j1 < ac; j1++ {
			va := a[i1*ac+j1]
			if va == 0 {
				continue
			}
			for i2 := 0; i2 < br; i2++ {
				dst := out[(i1*br+i2)*oc+j1*bc:]
				src := b[i2*bc : (i2+1)*bc]
				for j2, vb := range src {
					dst[j2] = va * vb
				}
			}
		}
	}
}
