package mat

import (
	"fmt"
	"math"
)

// Dense is an explicit row-major matrix. It is the fallback representation
// and the reference implementation against which implicit matrices are
// tested.
type Dense struct {
	rows, cols int
	data       []float64 // row-major, len rows*cols
}

// NewDense returns a rows×cols dense matrix backed by data (row-major).
// If data is nil a zero matrix is allocated; otherwise len(data) must be
// rows*cols and the slice is used directly (not copied).
func NewDense(rows, cols int, data []float64) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: NewDense negative dims %dx%d", rows, cols))
	}
	if data == nil {
		data = make([]float64, rows*cols)
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: NewDense data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// DenseFromRows builds a dense matrix from a slice of equal-length rows.
func DenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0, nil)
	}
	c := len(rows[0])
	d := NewDense(len(rows), c, nil)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("mat: DenseFromRows ragged row %d: len %d != %d", i, len(r), c))
		}
		copy(d.data[i*c:(i+1)*c], r)
	}
	return d
}

// Dims returns the matrix dimensions.
func (d *Dense) Dims() (int, int) { return d.rows, d.cols }

// At returns the element at row i, column j.
func (d *Dense) At(i, j int) float64 { return d.data[i*d.cols+j] }

// Set assigns the element at row i, column j.
func (d *Dense) Set(i, j int, v float64) { d.data[i*d.cols+j] = v }

// RowView returns a view (not a copy) of row i.
func (d *Dense) RowView(i int) []float64 { return d.data[i*d.cols : (i+1)*d.cols] }

// Data returns the backing row-major slice (not a copy).
func (d *Dense) Data() []float64 { return d.data }

// MatVec computes dst = D*x, splitting the rows across the engine's
// goroutines when the matrix is large enough.
func (d *Dense) MatVec(dst, x []float64) {
	checkMatVec(d, dst, x)
	if parallelizable(d.rows * d.cols) {
		t := newTask()
		t.fn, t.m, t.dst, t.x = denseMatVecKernel, d, dst, x
		parRun(t, d.rows, grainRows(d.cols))
		t.release()
		return
	}
	denseMatVecRange(d, dst, x, 0, d.rows)
}

func denseMatVecKernel(t *task, _, lo, hi int) {
	denseMatVecRange(t.m.(*Dense), t.dst, t.x, lo, hi)
}

func denseMatVecRange(d *Dense, dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := d.data[i*d.cols : (i+1)*d.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// TMatVec computes dst = Dᵀ*x. The parallel path splits the rows across
// workers, each accumulating into a private buffer that the engine merges
// into dst.
func (d *Dense) TMatVec(dst, x []float64) {
	checkTMatVec(d, dst, x)
	if parallelizable(d.rows*d.cols) && d.rows >= 4 {
		t := newTask()
		t.fn, t.m, t.dst, t.x = denseTMatVecKernel, d, dst, x
		t.auxLen = d.cols
		parRun(t, d.rows, grainRows(d.cols))
		t.release()
		return
	}
	for j := range dst {
		dst[j] = 0
	}
	denseTMatVecRange(d, dst, x, 0, d.rows)
}

func denseTMatVecKernel(t *task, worker, lo, hi int) {
	buf := t.dst
	if worker > 0 {
		buf = t.aux[worker-1]
	}
	denseTMatVecRange(t.m.(*Dense), buf, t.x, lo, hi)
}

// denseTMatVecRange accumulates rows [lo, hi) of Dᵀx into dst, which the
// caller must have zeroed.
func denseTMatVecRange(d *Dense, dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := d.data[i*d.cols : (i+1)*d.cols]
		for j, v := range row {
			dst[j] += xi * v
		}
	}
}

// MatMat computes the panel product dst = D·X (X cols×k row-major). Rows
// are processed four at a time so each panel row of X loaded from memory
// feeds four accumulator rows, and the inner loop is a contiguous k-wide
// multiply-add that auto-vectorizes.
func (d *Dense) MatMat(dst, x []float64, k int) {
	checkMatMat(d, dst, x, k)
	if parallelizable(d.rows * d.cols * k) {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.k = denseMatMatKernel, d, dst, x, k
		parRun(t, d.rows, grainRows(d.cols*k))
		t.release()
		return
	}
	denseMatMatRange(d, dst, x, k, 0, d.rows)
}

func denseMatMatKernel(t *task, _, lo, hi int) {
	denseMatMatRange(t.m.(*Dense), t.dst, t.x, t.k, lo, hi)
}

func denseMatMatRange(d *Dense, dst, x []float64, k, lo, hi int) {
	c := d.cols
	i := lo
	for ; i+3 < hi; i += 4 {
		r0 := d.data[i*c : (i+1)*c]
		r1 := d.data[(i+1)*c : (i+2)*c]
		r2 := d.data[(i+2)*c : (i+3)*c]
		r3 := d.data[(i+3)*c : (i+4)*c]
		o0 := dst[i*k : (i+1)*k]
		o1 := dst[(i+1)*k : (i+2)*k]
		o2 := dst[(i+2)*k : (i+3)*k]
		o3 := dst[(i+3)*k : (i+4)*k]
		for t := range o0 {
			o0[t], o1[t], o2[t], o3[t] = 0, 0, 0, 0
		}
		for j := 0; j < c; j++ {
			v0, v1, v2, v3 := r0[j], r1[j], r2[j], r3[j]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			xr := x[j*k : (j+1)*k]
			for t, xv := range xr {
				o0[t] += v0 * xv
				o1[t] += v1 * xv
				o2[t] += v2 * xv
				o3[t] += v3 * xv
			}
		}
	}
	for ; i < hi; i++ {
		row := d.data[i*c : (i+1)*c]
		o := dst[i*k : (i+1)*k]
		for t := range o {
			o[t] = 0
		}
		for j, v := range row {
			if v == 0 {
				continue
			}
			xr := x[j*k : (j+1)*k]
			for t, xv := range xr {
				o[t] += v * xv
			}
		}
	}
}

// TMatMat computes dst = Dᵀ·X (X rows×k). The kernel walks four source
// rows at a time so each k-wide output row written back absorbs four
// contributions per pass; the parallel path gives each worker a private
// cols×k accumulator panel merged by the engine.
func (d *Dense) TMatMat(dst, x []float64, k int) {
	checkTMatMat(d, dst, x, k)
	if parallelizable(d.rows*d.cols*k) && d.rows >= 4 {
		t := newTask()
		t.fn, t.m, t.dst, t.x, t.k = denseTMatMatKernel, d, dst, x, k
		t.auxLen = d.cols * k
		parRun(t, d.rows, grainRows(d.cols*k))
		t.release()
		return
	}
	for j := range dst {
		dst[j] = 0
	}
	denseTMatMatRange(d, dst, x, k, 0, d.rows)
}

func denseTMatMatKernel(t *task, worker, lo, hi int) {
	buf := t.dst
	if worker > 0 {
		buf = t.aux[worker-1]
	}
	denseTMatMatRange(t.m.(*Dense), buf, t.x, t.k, lo, hi)
}

// denseTMatMatRange accumulates rows [lo, hi) of Dᵀ·X into dst, which
// the caller must have zeroed.
func denseTMatMatRange(d *Dense, dst, x []float64, k, lo, hi int) {
	c := d.cols
	i := lo
	for ; i+3 < hi; i += 4 {
		r0 := d.data[i*c : (i+1)*c]
		r1 := d.data[(i+1)*c : (i+2)*c]
		r2 := d.data[(i+2)*c : (i+3)*c]
		r3 := d.data[(i+3)*c : (i+4)*c]
		x0 := x[i*k : (i+1)*k]
		x1 := x[(i+1)*k : (i+2)*k]
		x2 := x[(i+2)*k : (i+3)*k]
		x3 := x[(i+3)*k : (i+4)*k]
		for j := 0; j < c; j++ {
			v0, v1, v2, v3 := r0[j], r1[j], r2[j], r3[j]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			o := dst[j*k : (j+1)*k]
			for t := range o {
				// Accumulate row by row (not one reassociated 4-term sum)
				// so the panel result equals k TMatVecs bit for bit — the
				// contract the batched solvers pin their columns against.
				s := o[t] + v0*x0[t]
				s += v1 * x1[t]
				s += v2 * x2[t]
				s += v3 * x3[t]
				o[t] = s
			}
		}
	}
	for ; i < hi; i++ {
		row := d.data[i*c : (i+1)*c]
		xr := x[i*k : (i+1)*k]
		for j, v := range row {
			if v == 0 {
				continue
			}
			o := dst[j*k : (j+1)*k]
			for t := range o {
				o[t] += v * xr[t]
			}
		}
	}
}

// grainRows converts the engine's per-chunk flop grain into a row count
// for kernels whose per-row cost is rowCost flops.
func grainRows(rowCost int) int {
	if rowCost <= 0 {
		return parGrain
	}
	g := parGrain / rowCost
	if g < 1 {
		g = 1
	}
	return g
}

// Abs returns the element-wise absolute value as a new dense matrix.
func (d *Dense) Abs() Matrix {
	out := NewDense(d.rows, d.cols, nil)
	for i, v := range d.data {
		out.data[i] = math.Abs(v)
	}
	return out
}

// String renders small matrices for debugging.
func (d *Dense) String() string {
	if d.rows*d.cols > 400 {
		return fmt.Sprintf("Dense(%dx%d)", d.rows, d.cols)
	}
	s := ""
	for i := 0; i < d.rows; i++ {
		s += fmt.Sprintf("%6.3v\n", d.RowView(i))
	}
	return s
}
