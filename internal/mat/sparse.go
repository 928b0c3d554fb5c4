package mat

import (
	"fmt"
	"math"
	"slices"
)

// Sparse is a compressed-sparse-row (CSR) matrix: only nonzero entries are
// stored, giving O(nnz) mat-vec cost (paper §7.2, sparse representation).
type Sparse struct {
	rows, cols int
	rowPtr     []int // len rows+1
	colIdx     []int // len nnz
	val        []float64
}

// Triplet is a single (row, col, value) coordinate entry used to build a
// Sparse matrix.
type Triplet struct {
	Row, Col int
	Val      float64
}

// NewSparse builds a CSR matrix from coordinate triplets. Duplicate
// coordinates are summed; zero values are kept out of the structure.
func NewSparse(rows, cols int, entries []Triplet) *Sparse {
	for _, t := range entries {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			panic(fmt.Sprintf("mat: NewSparse entry (%d,%d) outside %dx%d", t.Row, t.Col, rows, cols))
		}
	}
	byCoord := func(a, b Triplet) int {
		if a.Row != b.Row {
			return a.Row - b.Row
		}
		return a.Col - b.Col
	}
	sorted := entries // row-major input (a structural walk's) is read in place
	if !slices.IsSortedFunc(entries, byCoord) {
		sorted = slices.Clone(entries)
		slices.SortFunc(sorted, byCoord)
	}
	s := &Sparse{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	s.colIdx = make([]int, 0, len(sorted))
	s.val = make([]float64, 0, len(sorted))
	// Single pass over the sorted run: coincident coordinates are merged
	// by summation, exact zeros are dropped, and row end offsets are
	// recorded as each row's run closes.
	for k := 0; k < len(sorted); {
		t := sorted[k]
		v := t.Val
		k++
		for k < len(sorted) && sorted[k].Row == t.Row && sorted[k].Col == t.Col {
			v += sorted[k].Val
			k++
		}
		if v == 0 {
			continue
		}
		s.colIdx = append(s.colIdx, t.Col)
		s.val = append(s.val, v)
		s.rowPtr[t.Row+1] = len(s.val)
	}
	// rowPtr currently holds end offsets only for rows that had entries;
	// propagate so that rowPtr is non-decreasing.
	for i := 1; i <= rows; i++ {
		if s.rowPtr[i] < s.rowPtr[i-1] {
			s.rowPtr[i] = s.rowPtr[i-1]
		}
	}
	return s
}

// Dims returns the matrix dimensions.
func (s *Sparse) Dims() (int, int) { return s.rows, s.cols }

// NNZ returns the number of stored nonzero entries.
func (s *Sparse) NNZ() int { return len(s.val) }

// MatVec computes dst = S*x in O(nnz), splitting the CSR rows across the
// engine's goroutines when there is enough work.
func (s *Sparse) MatVec(dst, x []float64) {
	checkMatVec(s, dst, x)
	if parallelizable(len(s.val)) {
		t := newTask()
		t.fn, t.m, t.dst, t.x = sparseMatVecKernel, s, dst, x
		parRun(t, s.rows, grainRows(s.avgRowNNZ()))
		t.release()
		return
	}
	sparseMatVecRange(s, dst, x, 0, s.rows)
}

func sparseMatVecKernel(t *task, _, lo, hi int) {
	sparseMatVecRange(t.m.(*Sparse), t.dst, t.x, lo, hi)
}

func sparseMatVecRange(s *Sparse, dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var acc float64
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			acc += s.val[k] * x[s.colIdx[k]]
		}
		dst[i] = acc
	}
}

// TMatVec computes dst = Sᵀ*x in O(nnz). The parallel path splits the
// rows across workers, each scattering into a private accumulator that
// the engine merges into dst, so no two goroutines write one column.
func (s *Sparse) TMatVec(dst, x []float64) {
	checkTMatVec(s, dst, x)
	// Merging costs workers·cols adds; only profitable when the scatter
	// work clearly dominates it.
	if parallelizable(len(s.val)) && len(s.val) >= 4*s.cols {
		t := newTask()
		t.fn, t.m, t.dst, t.x = sparseTMatVecKernel, s, dst, x
		t.auxLen = s.cols
		parRun(t, s.rows, grainRows(s.avgRowNNZ()))
		t.release()
		return
	}
	for j := range dst {
		dst[j] = 0
	}
	sparseTMatVecRange(s, dst, x, 0, s.rows)
}

func sparseTMatVecKernel(t *task, worker, lo, hi int) {
	buf := t.dst
	if worker > 0 {
		buf = t.aux[worker-1]
	}
	sparseTMatVecRange(t.m.(*Sparse), buf, t.x, lo, hi)
}

// sparseTMatVecRange accumulates rows [lo, hi) of Sᵀx into dst, which
// the caller must have zeroed.
func sparseTMatVecRange(s *Sparse, dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			dst[s.colIdx[k]] += xi * s.val[k]
		}
	}
}

// MatMat computes the panel product dst = S·X (X cols×k). Each stored
// entry is loaded once and feeds a contiguous k-wide multiply-add, so the
// CSR traversal cost is amortized over the whole panel.
func (s *Sparse) MatMat(dst, x []float64, k int) {
	checkMatMat(s, dst, x, k)
	if parallelizable(len(s.val) * k) {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.k = sparseMatMatKernel, s, dst, x, k
		parRun(t, s.rows, grainRows(s.avgRowNNZ()*k))
		t.release()
		return
	}
	sparseMatMatRange(s, dst, x, k, 0, s.rows)
}

func sparseMatMatKernel(t *task, _, lo, hi int) {
	sparseMatMatRange(t.m.(*Sparse), t.dst, t.x, t.k, lo, hi)
}

func sparseMatMatRange(s *Sparse, dst, x []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		o := dst[i*k : (i+1)*k]
		for t := range o {
			o[t] = 0
		}
		for kk := s.rowPtr[i]; kk < s.rowPtr[i+1]; kk++ {
			v := s.val[kk]
			xr := x[s.colIdx[kk]*k : (s.colIdx[kk]+1)*k]
			for t, xv := range xr {
				o[t] += v * xv
			}
		}
	}
}

// TMatMat computes dst = Sᵀ·X (X rows×k). The scatter of the transpose
// becomes a contiguous k-wide axpy per stored entry; the parallel path
// gives each worker a private cols×k accumulator panel.
func (s *Sparse) TMatMat(dst, x []float64, k int) {
	checkTMatMat(s, dst, x, k)
	if parallelizable(len(s.val)*k) && len(s.val) >= 4*s.cols {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.k = sparseTMatMatKernel, s, dst, x, k
		t.auxLen = s.cols * k
		parRun(t, s.rows, grainRows(s.avgRowNNZ()*k))
		t.release()
		return
	}
	for j := range dst {
		dst[j] = 0
	}
	sparseTMatMatRange(s, dst, x, k, 0, s.rows)
}

func sparseTMatMatKernel(t *task, worker, lo, hi int) {
	buf := t.dst
	if worker > 0 {
		buf = t.aux[worker-1]
	}
	sparseTMatMatRange(t.m.(*Sparse), buf, t.x, t.k, lo, hi)
}

// sparseTMatMatRange accumulates rows [lo, hi) of Sᵀ·X into dst, which
// the caller must have zeroed.
func sparseTMatMatRange(s *Sparse, dst, x []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		xr := x[i*k : (i+1)*k]
		for kk := s.rowPtr[i]; kk < s.rowPtr[i+1]; kk++ {
			v := s.val[kk]
			o := dst[s.colIdx[kk]*k : (s.colIdx[kk]+1)*k]
			for t := range o {
				o[t] += v * xr[t]
			}
		}
	}
}

func (s *Sparse) avgRowNNZ() int {
	if s.rows == 0 {
		return 1
	}
	return len(s.val)/s.rows + 1
}

// Abs returns the element-wise absolute value, preserving sparsity.
func (s *Sparse) Abs() Matrix {
	out := &Sparse{rows: s.rows, cols: s.cols,
		rowPtr: append([]int(nil), s.rowPtr...),
		colIdx: append([]int(nil), s.colIdx...),
		val:    make([]float64, len(s.val)),
	}
	for i, v := range s.val {
		out.val[i] = math.Abs(v)
	}
	return out
}

// RowNNZ returns the (column, value) pairs of row i.
func (s *Sparse) RowNNZ(i int) ([]int, []float64) {
	return s.colIdx[s.rowPtr[i]:s.rowPtr[i+1]], s.val[s.rowPtr[i]:s.rowPtr[i+1]]
}
