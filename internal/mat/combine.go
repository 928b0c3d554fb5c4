package mat

import (
	"fmt"
	"math"
)

// This file implements the combining operations of paper §7.4: Union
// (vertical stacking of query sets), Product, and Kronecker product, plus
// the Transpose, Scaled and Diag helpers. Composed matrices delegate the
// primitive methods to their children and therefore inherit the children's
// space/time characteristics (paper Table 3).

// VStackMat is the vertical stacking (query-set union) of sub-matrices
// that share a column count.
type VStackMat struct {
	blocks []Matrix
	offs   []int // row offset of each block, len(blocks)+1
	rows   int
	cols   int
}

// VStack returns the union of the given query matrices: a matrix whose
// rows are the concatenated rows of the blocks. All blocks must share a
// column count.
func VStack(blocks ...Matrix) *VStackMat {
	if len(blocks) == 0 {
		panic("mat: VStack of zero blocks")
	}
	_, c := blocks[0].Dims()
	offs := make([]int, len(blocks)+1)
	rows := 0
	for i, b := range blocks {
		br, bc := b.Dims()
		if bc != c {
			panic(fmt.Sprintf("mat: VStack column mismatch %d vs %d", bc, c))
		}
		offs[i] = rows
		rows += br
	}
	offs[len(blocks)] = rows
	return &VStackMat{blocks: blocks, offs: offs, rows: rows, cols: c}
}

// Dims returns the stacked dimensions.
func (m *VStackMat) Dims() (int, int) { return m.rows, m.cols }

// MatVec evaluates each block on x into its row segment. Blocks write
// disjoint segments of dst, so the parallel path hands whole blocks to
// the engine's workers.
func (m *VStackMat) MatVec(dst, x []float64) {
	checkMatVec(m, dst, x)
	if len(m.blocks) > 1 && parallelizable(m.estWork()) {
		t := newTask()
		t.fn, t.m, t.dst, t.x = vstackMatVecKernel, m, dst, x
		parRun(t, len(m.blocks), 1)
		t.release()
		return
	}
	vstackMatVecRange(m, dst, x, 0, len(m.blocks))
}

func vstackMatVecKernel(t *task, _, lo, hi int) {
	vstackMatVecRange(t.m.(*VStackMat), t.dst, t.x, lo, hi)
}

func vstackMatVecRange(m *VStackMat, dst, x []float64, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		m.blocks[bi].MatVec(dst[m.offs[bi]:m.offs[bi+1]], x)
	}
}

// TMatVec accumulates Σᵢ Bᵢᵀ xᵢ over the row segments. Workers evaluate
// disjoint block subsets into private accumulators that the engine
// merges; block results land in pooled scratch, so the steady state
// allocates nothing.
func (m *VStackMat) TMatVec(dst, x []float64) {
	checkTMatVec(m, dst, x)
	// Zeroing and merging the accumulators costs O(workers·cols); only go
	// parallel when the stacked work clearly dominates it (mirrors the
	// Sparse.TMatVec guard).
	if len(m.blocks) > 1 && parallelizable(m.estWork()) && m.estWork() >= 8*m.cols {
		t := newTask()
		t.fn, t.m, t.dst, t.x = vstackTMatVecKernel, m, dst, x
		t.auxLen = m.cols
		parRun(t, len(m.blocks), 1)
		t.release()
		return
	}
	for j := range dst {
		dst[j] = 0
	}
	vstackTMatVecRange(m, dst, x, 0, len(m.blocks))
}

func vstackTMatVecKernel(t *task, worker, lo, hi int) {
	buf := t.dst
	if worker > 0 {
		buf = t.aux[worker-1]
	}
	vstackTMatVecRange(t.m.(*VStackMat), buf, t.x, lo, hi)
}

// vstackTMatVecRange adds Σ Bᵢᵀ xᵢ over blocks [lo, hi) into dst, which
// the caller must have zeroed.
func vstackTMatVecRange(m *VStackMat, dst, x []float64, lo, hi int) {
	s := getScratch(m.cols)
	for bi := lo; bi < hi; bi++ {
		m.blocks[bi].TMatVec(s.buf, x[m.offs[bi]:m.offs[bi+1]])
		for j, v := range s.buf {
			dst[j] += v
		}
	}
	s.put()
}

// estWork estimates the flop count of one stacked mat-vec: implicit
// blocks cost about O(rows + cols) each.
func (m *VStackMat) estWork() int {
	return m.rows + len(m.blocks)*m.cols
}

// MatMat hands each block the full input panel; block outputs are
// disjoint contiguous row panels of dst, so the parallel path distributes
// whole blocks across the engine's workers.
func (m *VStackMat) MatMat(dst, x []float64, k int) {
	checkMatMat(m, dst, x, k)
	if len(m.blocks) > 1 && parallelizable(m.estWork()*k) {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.k = vstackMatMatKernel, m, dst, x, k
		parRun(t, len(m.blocks), 1)
		t.release()
		return
	}
	vstackMatMatRange(m, dst, x, k, 0, len(m.blocks))
}

func vstackMatMatKernel(t *task, _, lo, hi int) {
	vstackMatMatRange(t.m.(*VStackMat), t.dst, t.x, t.k, lo, hi)
}

func vstackMatMatRange(m *VStackMat, dst, x []float64, k, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		MatMat(m.blocks[bi], dst[m.offs[bi]*k:m.offs[bi+1]*k], x, k)
	}
}

// TMatMat accumulates Σᵢ Bᵢᵀ·Xᵢ over the row-panel segments through
// pooled scratch panels; workers merge private cols×k accumulators.
func (m *VStackMat) TMatMat(dst, x []float64, k int) {
	checkTMatMat(m, dst, x, k)
	if len(m.blocks) > 1 && parallelizable(m.estWork()*k) && m.estWork()*k >= 8*m.cols*k {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.k = vstackTMatMatKernel, m, dst, x, k
		t.auxLen = m.cols * k
		parRun(t, len(m.blocks), 1)
		t.release()
		return
	}
	for j := range dst {
		dst[j] = 0
	}
	vstackTMatMatRange(m, dst, x, k, 0, len(m.blocks))
}

func vstackTMatMatKernel(t *task, worker, lo, hi int) {
	buf := t.dst
	if worker > 0 {
		buf = t.aux[worker-1]
	}
	vstackTMatMatRange(t.m.(*VStackMat), buf, t.x, t.k, lo, hi)
}

// vstackTMatMatRange adds Σ Bᵢᵀ·Xᵢ over blocks [lo, hi) into dst, which
// the caller must have zeroed.
func vstackTMatMatRange(m *VStackMat, dst, x []float64, k, lo, hi int) {
	s := getScratch(m.cols * k)
	for bi := lo; bi < hi; bi++ {
		TMatMat(m.blocks[bi], s.buf, x[m.offs[bi]*k:m.offs[bi+1]*k], k)
		for j, v := range s.buf {
			dst[j] += v
		}
	}
	s.put()
}

// Abs stacks the children's absolute values.
func (m *VStackMat) Abs() Matrix {
	out := make([]Matrix, len(m.blocks))
	for i, b := range m.blocks {
		out[i] = Abs(b)
	}
	return VStack(out...)
}

// ProductMat is the matrix product A·B, evaluated lazily.
type ProductMat struct {
	a, b Matrix
	// binary marks products known to materialize to a 0/1 matrix (e.g. the
	// range-query construction of Example 7.4), for which Abs is a no-op
	// despite products not distributing over abs in general.
	binary bool
}

// Product returns the lazy matrix product a·b.
func Product(a, b Matrix) *ProductMat {
	_, ac := a.Dims()
	br, _ := b.Dims()
	if ac != br {
		panic(fmt.Sprintf("mat: Product inner dims %d vs %d", ac, br))
	}
	return &ProductMat{a: a, b: b}
}

// BinaryProduct returns the lazy product a·b declared by the caller to
// materialize to a 0/1 matrix, enabling an implicit Abs (paper §7.5 note
// on binary-valued matrices).
func BinaryProduct(a, b Matrix) *ProductMat {
	p := Product(a, b)
	p.binary = true
	return p
}

// Dims returns the product's dimensions.
func (m *ProductMat) Dims() (int, int) {
	ar, _ := m.a.Dims()
	_, bc := m.b.Dims()
	return ar, bc
}

// MatVec computes dst = A(Bx) through a pooled intermediate.
func (m *ProductMat) MatVec(dst, x []float64) {
	checkMatVec(m, dst, x)
	br, _ := m.b.Dims()
	s := getScratch(br)
	m.b.MatVec(s.buf, x)
	m.a.MatVec(dst, s.buf)
	s.put()
}

// TMatVec computes dst = Bᵀ(Aᵀx) through a pooled intermediate.
func (m *ProductMat) TMatVec(dst, x []float64) {
	checkTMatVec(m, dst, x)
	_, ac := m.a.Dims()
	s := getScratch(ac)
	m.a.TMatVec(s.buf, x)
	m.b.TMatVec(dst, s.buf)
	s.put()
}

// MatMat computes dst = A·(B·X) through a pooled intermediate panel.
func (m *ProductMat) MatMat(dst, x []float64, k int) {
	checkMatMat(m, dst, x, k)
	br, _ := m.b.Dims()
	s := getScratch(br * k)
	MatMat(m.b, s.buf, x, k)
	MatMat(m.a, dst, s.buf, k)
	s.put()
}

// TMatMat computes dst = Bᵀ·(Aᵀ·X) through a pooled intermediate panel.
func (m *ProductMat) TMatMat(dst, x []float64, k int) {
	checkTMatMat(m, dst, x, k)
	_, ac := m.a.Dims()
	s := getScratch(ac * k)
	TMatMat(m.a, s.buf, x, k)
	TMatMat(m.b, dst, s.buf, k)
	s.put()
}

// Abs returns the product itself when it is declared binary, and a dense
// materialization otherwise (abs does not distribute over products).
func (m *ProductMat) Abs() Matrix {
	if m.binary {
		return m
	}
	return Materialize(m).Abs()
}

// KroneckerMat is the Kronecker product A⊗B (paper Definition 7.2),
// evaluated via the vec-trick in n_B·Time(A) + m_A·Time(B).
type KroneckerMat struct {
	a, b Matrix
}

// Kron returns the Kronecker product of the factors, folding right to
// left; Kron(A, B, C) = A⊗(B⊗C).
func Kron(factors ...Matrix) Matrix {
	if len(factors) == 0 {
		panic("mat: Kron of zero factors")
	}
	out := factors[len(factors)-1]
	for i := len(factors) - 2; i >= 0; i-- {
		out = &KroneckerMat{a: factors[i], b: out}
	}
	return out
}

// Dims returns (m_A·m_B, n_A·n_B).
func (m *KroneckerMat) Dims() (int, int) {
	ar, ac := m.a.Dims()
	br, bc := m.b.Dims()
	return ar * br, ac * bc
}

// MatVec computes (A⊗B)x by reshaping x into an n_A×n_B matrix X and
// evaluating vec(A·(X·Bᵀ)ᵀ... concretely: Z[j1,:] = B·X[j1,:] for each j1,
// then dst[:,i2] = A·Z[:,i2] for each i2. Both phases are data-parallel
// over the outer factor's index and run through the engine; the Z buffer
// and the per-worker column scratch come from the pool.
func (m *KroneckerMat) MatVec(dst, x []float64) {
	checkMatVec(m, dst, x)
	ar, ac := m.a.Dims()
	br, bc := m.b.Dims()
	z := getScratch(ac * br) // z[j1*br + i2]
	// Phase 1: apply B to each of the ac rows of X (row j1 = x[j1*bc:(j1+1)*bc]).
	if parallelizable(ac * (br + bc)) {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.z = kronRowsKernel, m, dst, x, z.buf
		parRun(t, ac, grainRows(br+bc))
		t.release()
	} else {
		kronRowsRange(m, z.buf, x, 0, ac)
	}
	// Phase 2: apply A down each of the br columns of Z.
	if parallelizable(br * (ar + ac)) {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.z = kronColsKernel, m, dst, x, z.buf
		parRun(t, br, grainRows(ar+ac))
		t.release()
	} else {
		kronColsRange(m, dst, z.buf, 0, br)
	}
	z.put()
}

func kronRowsKernel(t *task, _, lo, hi int) {
	kronRowsRange(t.m.(*KroneckerMat), t.z, t.x, lo, hi)
}

func kronRowsRange(m *KroneckerMat, z, x []float64, lo, hi int) {
	_, bc := m.b.Dims()
	br, _ := m.b.Dims()
	for j1 := lo; j1 < hi; j1++ {
		m.b.MatVec(z[j1*br:(j1+1)*br], x[j1*bc:(j1+1)*bc])
	}
}

func kronColsKernel(t *task, _, lo, hi int) {
	kronColsRange(t.m.(*KroneckerMat), t.dst, t.z, lo, hi)
}

func kronColsRange(m *KroneckerMat, dst, z []float64, lo, hi int) {
	ar, ac := m.a.Dims()
	br, _ := m.b.Dims()
	in := getScratch(ac)
	out := getScratch(ar)
	for i2 := lo; i2 < hi; i2++ {
		for j1 := 0; j1 < ac; j1++ {
			in.buf[j1] = z[j1*br+i2]
		}
		m.a.MatVec(out.buf, in.buf)
		for i1 := 0; i1 < ar; i1++ {
			dst[i1*br+i2] = out.buf[i1]
		}
	}
	in.put()
	out.put()
}

// TMatVec computes (A⊗B)ᵀx = (Aᵀ⊗Bᵀ)x by the same trick with the
// transposed factors, parallelized the same way.
func (m *KroneckerMat) TMatVec(dst, x []float64) {
	checkTMatVec(m, dst, x)
	ar, ac := m.a.Dims()
	br, bc := m.b.Dims()
	z := getScratch(ar * bc) // z[i1*bc + j2] = Bᵀ applied to row i1 of X
	if parallelizable(ar * (br + bc)) {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.z = kronTRowsKernel, m, dst, x, z.buf
		parRun(t, ar, grainRows(br+bc))
		t.release()
	} else {
		kronTRowsRange(m, z.buf, x, 0, ar)
	}
	if parallelizable(bc * (ar + ac)) {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.z = kronTColsKernel, m, dst, x, z.buf
		parRun(t, bc, grainRows(ar+ac))
		t.release()
	} else {
		kronTColsRange(m, dst, z.buf, 0, bc)
	}
	z.put()
}

func kronTRowsKernel(t *task, _, lo, hi int) {
	kronTRowsRange(t.m.(*KroneckerMat), t.z, t.x, lo, hi)
}

func kronTRowsRange(m *KroneckerMat, z, x []float64, lo, hi int) {
	br, bc := m.b.Dims()
	for i1 := lo; i1 < hi; i1++ {
		m.b.TMatVec(z[i1*bc:(i1+1)*bc], x[i1*br:(i1+1)*br])
	}
}

func kronTColsKernel(t *task, _, lo, hi int) {
	kronTColsRange(t.m.(*KroneckerMat), t.dst, t.z, lo, hi)
}

func kronTColsRange(m *KroneckerMat, dst, z []float64, lo, hi int) {
	ar, ac := m.a.Dims()
	_, bc := m.b.Dims()
	in := getScratch(ar)
	out := getScratch(ac)
	for j2 := lo; j2 < hi; j2++ {
		for i1 := 0; i1 < ar; i1++ {
			in.buf[i1] = z[i1*bc+j2]
		}
		m.a.TMatVec(out.buf, in.buf)
		for j1 := 0; j1 < ac; j1++ {
			dst[j1*bc+j2] = out.buf[j1]
		}
	}
	in.put()
	out.put()
}

// MatMat evaluates (A⊗B)·X by the vec-trick on whole panels: phase 1
// applies B to each contiguous bc×k sub-panel of X (a child MatMat, so
// the factor's batched kernel is reused), phase 2 gathers the ac×k panel
// of each inner index, applies A, and scatters the result rows. Both
// phases are data-parallel over the outer factor's index and run through
// the engine, mirroring the MatVec kernels.
func (m *KroneckerMat) MatMat(dst, x []float64, k int) {
	checkMatMat(m, dst, x, k)
	ar, ac := m.a.Dims()
	br, bc := m.b.Dims()
	z := getScratch(ac * br * k) // z row (j1*br + i2) holds B·X panel rows
	if parallelizable(ac * (br + bc) * k) {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.z, t.k = kronMatMatRowsKernel, m, dst, x, z.buf, k
		parRun(t, ac, grainRows((br+bc)*k))
		t.release()
	} else {
		kronMatMatRowsRange(m, z.buf, x, k, 0, ac)
	}
	if parallelizable(br * (ar + ac) * k) {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.z, t.k = kronMatMatColsKernel, m, dst, x, z.buf, k
		parRun(t, br, grainRows((ar+ac)*k))
		t.release()
	} else {
		kronMatMatColsRange(m, dst, z.buf, k, 0, br)
	}
	z.put()
}

func kronMatMatRowsKernel(t *task, _, lo, hi int) {
	kronMatMatRowsRange(t.m.(*KroneckerMat), t.z, t.x, t.k, lo, hi)
}

func kronMatMatRowsRange(m *KroneckerMat, z, x []float64, k, lo, hi int) {
	br, bc := m.b.Dims()
	for j1 := lo; j1 < hi; j1++ {
		MatMat(m.b, z[j1*br*k:(j1+1)*br*k], x[j1*bc*k:(j1+1)*bc*k], k)
	}
}

func kronMatMatColsKernel(t *task, _, lo, hi int) {
	kronMatMatColsRange(t.m.(*KroneckerMat), t.dst, t.z, t.k, lo, hi)
}

func kronMatMatColsRange(m *KroneckerMat, dst, z []float64, k, lo, hi int) {
	ar, ac := m.a.Dims()
	br, _ := m.b.Dims()
	in := getScratch(ac * k)
	out := getScratch(ar * k)
	for i2 := lo; i2 < hi; i2++ {
		for j1 := 0; j1 < ac; j1++ {
			copy(in.buf[j1*k:(j1+1)*k], z[(j1*br+i2)*k:(j1*br+i2+1)*k])
		}
		MatMat(m.a, out.buf, in.buf, k)
		for i1 := 0; i1 < ar; i1++ {
			copy(dst[(i1*br+i2)*k:(i1*br+i2+1)*k], out.buf[i1*k:(i1+1)*k])
		}
	}
	in.put()
	out.put()
}

// TMatMat evaluates (A⊗B)ᵀ·X = (Aᵀ⊗Bᵀ)·X by the same trick with the
// transposed factors, parallelized the same way.
func (m *KroneckerMat) TMatMat(dst, x []float64, k int) {
	checkTMatMat(m, dst, x, k)
	ar, ac := m.a.Dims()
	br, bc := m.b.Dims()
	z := getScratch(ar * bc * k) // z row (i1*bc + j2) holds Bᵀ·X panel rows
	if parallelizable(ar * (br + bc) * k) {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.z, t.k = kronTMatMatRowsKernel, m, dst, x, z.buf, k
		parRun(t, ar, grainRows((br+bc)*k))
		t.release()
	} else {
		kronTMatMatRowsRange(m, z.buf, x, k, 0, ar)
	}
	if parallelizable(bc * (ar + ac) * k) {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.z, t.k = kronTMatMatColsKernel, m, dst, x, z.buf, k
		parRun(t, bc, grainRows((ar+ac)*k))
		t.release()
	} else {
		kronTMatMatColsRange(m, dst, z.buf, k, 0, bc)
	}
	z.put()
}

func kronTMatMatRowsKernel(t *task, _, lo, hi int) {
	kronTMatMatRowsRange(t.m.(*KroneckerMat), t.z, t.x, t.k, lo, hi)
}

func kronTMatMatRowsRange(m *KroneckerMat, z, x []float64, k, lo, hi int) {
	br, bc := m.b.Dims()
	for i1 := lo; i1 < hi; i1++ {
		TMatMat(m.b, z[i1*bc*k:(i1+1)*bc*k], x[i1*br*k:(i1+1)*br*k], k)
	}
}

func kronTMatMatColsKernel(t *task, _, lo, hi int) {
	kronTMatMatColsRange(t.m.(*KroneckerMat), t.dst, t.z, t.k, lo, hi)
}

func kronTMatMatColsRange(m *KroneckerMat, dst, z []float64, k, lo, hi int) {
	ar, ac := m.a.Dims()
	_, bc := m.b.Dims()
	in := getScratch(ar * k)
	out := getScratch(ac * k)
	for j2 := lo; j2 < hi; j2++ {
		for i1 := 0; i1 < ar; i1++ {
			copy(in.buf[i1*k:(i1+1)*k], z[(i1*bc+j2)*k:(i1*bc+j2+1)*k])
		}
		TMatMat(m.a, out.buf, in.buf, k)
		for j1 := 0; j1 < ac; j1++ {
			copy(dst[(j1*bc+j2)*k:(j1*bc+j2+1)*k], out.buf[j1*k:(j1+1)*k])
		}
	}
	in.put()
	out.put()
}

// Abs distributes over Kronecker products: |A⊗B| = |A|⊗|B|.
func (m *KroneckerMat) Abs() Matrix { return &KroneckerMat{a: Abs(m.a), b: Abs(m.b)} }

// TransposeMat is the lazy transpose of a matrix.
type TransposeMat struct{ m Matrix }

// T returns the transpose of m, unwrapping double transposes.
func T(m Matrix) Matrix {
	if t, ok := m.(*TransposeMat); ok {
		return t.m
	}
	return &TransposeMat{m: m}
}

// Dims returns the transposed dimensions.
func (t *TransposeMat) Dims() (int, int) {
	r, c := t.m.Dims()
	return c, r
}

// MatVec computes dst = Mᵀx via the child's TMatVec.
func (t *TransposeMat) MatVec(dst, x []float64) { t.m.TMatVec(dst, x) }

// TMatVec computes dst = Mx via the child's MatVec.
func (t *TransposeMat) TMatVec(dst, x []float64) { t.m.MatVec(dst, x) }

// MatMat computes dst = Mᵀ·X via the child's batched transpose kernel.
func (t *TransposeMat) MatMat(dst, x []float64, k int) {
	checkMatMat(t, dst, x, k)
	TMatMat(t.m, dst, x, k)
}

// TMatMat computes dst = M·X via the child's batched kernel.
func (t *TransposeMat) TMatMat(dst, x []float64, k int) {
	checkTMatMat(t, dst, x, k)
	MatMat(t.m, dst, x, k)
}

// Abs transposes the child's absolute value.
func (t *TransposeMat) Abs() Matrix { return T(Abs(t.m)) }

// ScaledMat is c·M for a scalar c.
type ScaledMat struct {
	c float64
	m Matrix
}

// Scaled returns the scalar multiple c·m.
func Scaled(c float64, m Matrix) *ScaledMat { return &ScaledMat{c: c, m: m} }

// Dims returns the child's dimensions.
func (s *ScaledMat) Dims() (int, int) { return s.m.Dims() }

// MatVec computes dst = c·(Mx).
func (s *ScaledMat) MatVec(dst, x []float64) {
	s.m.MatVec(dst, x)
	for i := range dst {
		dst[i] *= s.c
	}
}

// TMatVec computes dst = c·(Mᵀx).
func (s *ScaledMat) TMatVec(dst, x []float64) {
	s.m.TMatVec(dst, x)
	for i := range dst {
		dst[i] *= s.c
	}
}

// MatMat computes dst = c·(M·X).
func (s *ScaledMat) MatMat(dst, x []float64, k int) {
	checkMatMat(s, dst, x, k)
	MatMat(s.m, dst, x, k)
	for i := range dst {
		dst[i] *= s.c
	}
}

// TMatMat computes dst = c·(Mᵀ·X).
func (s *ScaledMat) TMatMat(dst, x []float64, k int) {
	checkTMatMat(s, dst, x, k)
	TMatMat(s.m, dst, x, k)
	for i := range dst {
		dst[i] *= s.c
	}
}

// Abs returns |c|·|M|.
func (s *ScaledMat) Abs() Matrix { return Scaled(math.Abs(s.c), Abs(s.m)) }

// DiagMat is a diagonal matrix stored as its diagonal.
type DiagMat struct{ d []float64 }

// Diag returns the diagonal matrix with the given diagonal (not copied).
func Diag(d []float64) *DiagMat { return &DiagMat{d: d} }

// Dims returns (n, n).
func (m *DiagMat) Dims() (int, int) { return len(m.d), len(m.d) }

// MatVec computes dst = d ⊙ x.
func (m *DiagMat) MatVec(dst, x []float64) {
	checkMatVec(m, dst, x)
	for i, v := range m.d {
		dst[i] = v * x[i]
	}
}

// TMatVec computes dst = d ⊙ x (diagonal matrices are symmetric).
func (m *DiagMat) TMatVec(dst, x []float64) {
	checkTMatVec(m, dst, x)
	for i, v := range m.d {
		dst[i] = v * x[i]
	}
}

// MatMat scales panel row i by d[i].
func (m *DiagMat) MatMat(dst, x []float64, k int) {
	checkMatMat(m, dst, x, k)
	diagPanel(dst, x, m.d, k)
}

// TMatMat scales panel row i by d[i] (diagonal matrices are symmetric).
func (m *DiagMat) TMatMat(dst, x []float64, k int) {
	checkTMatMat(m, dst, x, k)
	diagPanel(dst, x, m.d, k)
}

func diagPanel(dst, x, d []float64, k int) {
	for i, v := range d {
		xr := x[i*k : (i+1)*k]
		o := dst[i*k : (i+1)*k]
		for t := range o {
			o[t] = v * xr[t]
		}
	}
}

// Abs returns the diagonal of absolute values.
func (m *DiagMat) Abs() Matrix {
	out := make([]float64, len(m.d))
	for i, v := range m.d {
		out[i] = math.Abs(v)
	}
	return Diag(out)
}

// RowScaled returns diag(w)·M, the matrix whose i-th row is w[i] times the
// i-th row of m. It is used by inference to weight measurements with
// unequal noise scales.
func RowScaled(w []float64, m Matrix) Matrix {
	r, _ := m.Dims()
	if len(w) != r {
		panic(fmt.Sprintf("mat: RowScaled weights length %d != rows %d", len(w), r))
	}
	return &rowScaledMat{w: w, m: m}
}

type rowScaledMat struct {
	w []float64
	m Matrix
}

func (s *rowScaledMat) Dims() (int, int) { return s.m.Dims() }

func (s *rowScaledMat) MatVec(dst, x []float64) {
	s.m.MatVec(dst, x)
	for i, w := range s.w {
		dst[i] *= w
	}
}

func (s *rowScaledMat) TMatVec(dst, x []float64) {
	t := getScratch(len(x))
	for i, w := range s.w {
		t.buf[i] = x[i] * w
	}
	s.m.TMatVec(dst, t.buf)
	t.put()
}

// MatMat evaluates the child panel product, then scales output row i by
// w[i].
func (s *rowScaledMat) MatMat(dst, x []float64, k int) {
	checkMatMat(s, dst, x, k)
	MatMat(s.m, dst, x, k)
	for i, w := range s.w {
		o := dst[i*k : (i+1)*k]
		for t := range o {
			o[t] *= w
		}
	}
}

// TMatMat scales input panel row i by w[i] into pooled scratch, then
// evaluates the child's transpose panel product.
func (s *rowScaledMat) TMatMat(dst, x []float64, k int) {
	checkTMatMat(s, dst, x, k)
	t := getScratch(len(s.w) * k)
	for i, w := range s.w {
		xr := x[i*k : (i+1)*k]
		o := t.buf[i*k : (i+1)*k]
		for c := range o {
			o[c] = w * xr[c]
		}
	}
	TMatMat(s.m, dst, t.buf, k)
	t.put()
}

// Abs scales the child's absolute value rows by |w|.
func (s *rowScaledMat) Abs() Matrix {
	w := make([]float64, len(s.w))
	for i, v := range s.w {
		w[i] = math.Abs(v)
	}
	return RowScaled(w, Abs(s.m))
}
