// Package mat implements the implicit-matrix framework of EKTELO §7.
//
// A Matrix is a linear operator defined by the primitive methods of the
// paper that a program uses: matrix-vector product, transpose (via
// TMatVec), matrix multiplication (via Product) and element-wise
// absolute value (via the optional Abser interface, with a
// materializing fallback; the kernel's L1 sensitivity, §7.3, is its
// one caller). Core matrices (Identity, Ones, Total, Prefix,
// Suffix, Wavelet) are stored implicitly in O(1) space; combinators
// (VStack/union, Product, Kronecker) delegate to their children so that
// composed matrices inherit the children's cost model (paper Tables 2, 3).
//
// # Compute engine
//
// The data-parallel matrices — Dense (row blocks), Sparse (CSR row
// blocks; transpose via per-worker accumulators), VStack (block
// parallel) and Kronecker (outer-factor blocks) — execute large mat-vecs
// on a shared goroutine engine configured with SetParallelism (default
// runtime.GOMAXPROCS). Below a work threshold kernels stay on their
// serial loops, so small matrices pay no coordination cost; nested
// parallelism degrades to serial instead of deadlocking. The practical
// cost model therefore refines the paper's Tables 2-3 to
// Time(M)/min(P, blocks) plus an O(P·cols) merge for transpose
// accumulation.
//
// # Multi-RHS (MatMat) tier
//
// MatMat/TMatMat evaluate a matrix against a row-major panel of k
// right-hand sides in one traversal of the representation (see
// matmat.go for the layout). Dense and CSR have cache-tiled kernels
// whose inner loops are contiguous k-wide multiply-adds with four-wide
// row blocking, structured so the compiler auto-vectorizes them;
// combinators distribute the panel to their children; everything else
// falls back to k pooled MatVecs. Batched callers (Materialize,
// solver.CGLSMulti, HDMM scoring) therefore pay
// Time(M)·k flops but only one pass of memory traffic over M.
//
// The engine picks the blocked parallel path exactly as for MatVec —
// estimated flops (now ×k) above the 2^15 threshold and parallelism
// above one — so small panels keep their serial allocation-free loops.
//
// # Allocation discipline
//
// Steady-state MatVec/TMatVec and MatMat/TMatMat perform zero heap
// allocations for every matrix in the package: combinator temporaries
// come from an internal sync.Pool, and the engine's dispatch path is
// allocation-free by construction. Callers that run solver-style loops
// can additionally reuse their own buffers across calls through the
// explicit Workspace free-list (a nil *Workspace falls back to plain
// allocation).
//
// Gram computes MᵀM of a materialised operand with one blocked
// symmetric kernel per storage: Dense runs through the parallel engine
// with per-worker partial Grams, CSR runs serially so its bits do not
// depend on the engine's width, and GramUpdate folds more rows into a
// Gram with the same two kernels. Any other matrix takes the generic
// cols·matvec construction (see gram.go for the kernels' cost model).
package mat

import (
	"fmt"

	"repro/internal/vec"
)

// Matrix is an implicitly represented linear operator.
//
// Implementations must treat the receiver as immutable: MatVec and TMatVec
// may be called concurrently.
type Matrix interface {
	// Dims returns the number of rows and columns.
	Dims() (rows, cols int)
	// MatVec computes dst = M*x. len(x) must equal cols and len(dst) rows.
	MatVec(dst, x []float64)
	// TMatVec computes dst = Mᵀ*x. len(x) must equal rows and len(dst) cols.
	TMatVec(dst, x []float64)
}

// Abser is implemented by matrices that can produce their element-wise
// absolute value without materializing.
type Abser interface {
	Abs() Matrix
}

// checkMatVec panics if the slice lengths do not match m's dimensions.
func checkMatVec(m Matrix, dst, x []float64) {
	r, c := m.Dims()
	if len(x) != c || len(dst) != r {
		panic(fmt.Sprintf("mat: MatVec dims %dx%d with len(x)=%d len(dst)=%d", r, c, len(x), len(dst)))
	}
}

// checkTMatVec panics if the slice lengths do not match mᵀ's dimensions.
func checkTMatVec(m Matrix, dst, x []float64) {
	r, c := m.Dims()
	if len(x) != r || len(dst) != c {
		panic(fmt.Sprintf("mat: TMatVec dims %dx%d with len(x)=%d len(dst)=%d", r, c, len(x), len(dst)))
	}
}

// Mul returns M*x as a newly allocated vector.
func Mul(m Matrix, x []float64) []float64 {
	r, _ := m.Dims()
	dst := make([]float64, r)
	m.MatVec(dst, x)
	return dst
}

// TMul returns Mᵀ*x as a newly allocated vector.
func TMul(m Matrix, x []float64) []float64 {
	_, c := m.Dims()
	dst := make([]float64, c)
	m.TMatVec(dst, x)
	return dst
}

// Abs returns the element-wise absolute value of m, using the implicit
// representation when m implements Abser and a dense materialization
// otherwise.
func Abs(m Matrix) Matrix {
	if a, ok := m.(Abser); ok {
		return a.Abs()
	}
	return Materialize(m).Abs()
}

// L1Sensitivity returns ‖M‖₁, the maximum L1 column norm, computed as
// max(abs(M)ᵀ·1) using only primitive methods (paper §7.3).
func L1Sensitivity(m Matrix) float64 {
	a := Abs(m)
	r, _ := a.Dims()
	colSums := TMul(a, vec.Ones(r))
	if len(colSums) == 0 {
		return 0
	}
	return vec.Max(colSums)
}

// Row materializes the i-th row of m as wᵢ = Mᵀeᵢ (paper §7.3, row indexing).
func Row(m Matrix, i int) []float64 {
	r, _ := m.Dims()
	if i < 0 || i >= r {
		panic(fmt.Sprintf("mat: Row index %d out of range [0,%d)", i, r))
	}
	return TMul(m, vec.Basis(r, i))
}

// materializePanel is the basis-panel width Materialize extracts with:
// wide enough to amortize each matrix traversal over many columns,
// narrow enough that the k-wide kernel rows stay in L1.
const materializePanel = 32

// Materialize converts m into an explicit dense matrix using only the
// primitive methods (paper §7.3, materialize), evaluated panel-wise
// through the batched MatMat tier: M·E for basis panels E of up to
// materializePanel columns when the matrix is at least as tall as wide
// (each panel is one pass over M's representation instead of one per
// column), and Mᵀ·E row-basis panels otherwise. Intended for tests and
// small matrices only.
func Materialize(m Matrix) *Dense {
	r, c := m.Dims()
	d := NewDense(r, c, nil)
	if r == 0 || c == 0 {
		return d
	}
	if r < c {
		// Row extraction: Mᵀ applied to panels of row basis vectors.
		for i0 := 0; i0 < r; i0 += materializePanel {
			k := min(materializePanel, r-i0)
			e := getScratch(r * k)
			vec.Zero(e.buf)
			for q := 0; q < k; q++ {
				e.buf[(i0+q)*k+q] = 1
			}
			p := getScratch(c * k) // p[j*k+q] = M[i0+q][j]
			TMatMat(m, p.buf, e.buf, k)
			for q := 0; q < k; q++ {
				row := d.data[(i0+q)*c : (i0+q+1)*c]
				for j := range row {
					row[j] = p.buf[j*k+q]
				}
			}
			e.put()
			p.put()
		}
		return d
	}
	// Column extraction: M applied to panels of column basis vectors,
	// copied into the row-major backing slice segment by segment.
	for j0 := 0; j0 < c; j0 += materializePanel {
		k := min(materializePanel, c-j0)
		e := getScratch(c * k)
		vec.Zero(e.buf)
		for q := 0; q < k; q++ {
			e.buf[(j0+q)*k+q] = 1
		}
		p := getScratch(r * k)
		MatMat(m, p.buf, e.buf, k)
		for i := 0; i < r; i++ {
			copy(d.data[i*c+j0:i*c+j0+k], p.buf[i*k:(i+1)*k])
		}
		e.put()
		p.put()
	}
	return d
}

// Equal reports whether a and b have the same dimensions and materialize to
// element-wise equal matrices within tolerance tol. Intended for tests.
func Equal(a, b Matrix, tol float64) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	da, db := Materialize(a), Materialize(b)
	return vec.AllClose(da.data, db.data, 0, tol)
}
