// Package solver implements the iterative inference engines of EKTELO
// §7.6 on top of the implicit-matrix contract (mat-vec and transpose
// mat-vec only): LSMR (the paper's named solver) and conjugate-gradient
// least squares, FISTA projected-gradient non-negative least squares
// (the stand-in for L-BFGS-B), the multiplicative-weights update, plus a
// direct dense normal-equations solver and the tree-based least-squares
// method of Hay et al. used as baselines in the paper's Figure 5.
//
// Each Krylov/gradient algorithm has one body, written for k right-hand
// sides (CGLSMulti, LSMRMulti, NNLSMulti): k independent per-column
// recurrences run in lockstep over the mat package's MatMat/TMatMat
// panel tier, with one pass over the matrix per iteration for all k
// columns, per-column convergence latches, and zero allocations per
// iteration with a warm Options.Work. The single-vector calls CGLS, LSMR
// and NNLS are that body at k = 1, where MatMat and TMatMat are MatVec
// and TMatVec and each panel helper is a flat loop. On matrices whose
// panel kernels accumulate in MatVec order (Dense, CSR and the
// combinators built from them) a column of a k-wide solve is therefore
// bit-identical to the k = 1 solve of its right-hand side.
//
// # Warm starts
//
// Every iterative solver honors Options.X0: the solve starts from the
// given point (a cols×k row-major panel; a plain vector at k = 1) and
// iterates only on the residual the start point leaves. A converged X0
// therefore costs zero iterations, and an X0 from a nearby system (the
// previous generation of an incrementally grown measurement log) costs
// only the delta. Two caveats define the
// contract: (1) warm-started Krylov iterates follow a different
// trajectory than a cold solve of the same system, so warm and cold
// answers agree to solver tolerance, not bitwise — callers that need
// bit-identical warm/cold results should use NormalMulti, whose answer
// depends only on the (deterministically accumulated) Gram state; and
// (2) on rank-deficient systems the warm-started solution is the one
// nearest X0, not the minimum-norm one, so callers should fall back to
// a cold start whenever X0's provenance is doubtful (solver switched,
// panel shape changed, state restored from a snapshot).
//
// Because Tol is relative to the residual of the start point, a warm
// start alone makes the absolute target tighter (Tol times an
// already-small warm residual), which can eat every iteration the warm
// start would save. Callers that want warm solves to stop at the same
// absolute quality a cold solve reaches should pair X0 with
// Options.TolFloor set to the cold target Tol·‖Aᵀy_c‖ per column.
//
// # Damping
//
// Options.Damp adds Tikhonov regularization to LSMR: it minimizes
// ‖Ax − y‖² + Damp²·‖x − x₀‖² (x₀ = 0 when X0 is nil), which keeps
// ill-conditioned systems — rank-deficient logs restored from
// snapshots, near-collinear measurement sets — from amplifying noise
// along tiny singular values. NormalMulti applies the same λ² as
// a diagonal ridge. The other solvers ignore Damp.
package solver

import (
	"math"

	"repro/internal/mat"
	"repro/internal/vec"
)

// Options configures the iterative solvers. The zero value selects
// sensible defaults.
type Options struct {
	// MaxIter bounds the number of iterations; 0 means 2*cols+100.
	MaxIter int
	// Tol is the relative residual tolerance; 0 means 1e-10.
	Tol float64
	// X0 optionally warm-starts the solve; it is not modified. It is a
	// cols×k row-major panel (column c seeds right-hand side c); see the
	// package docs for the warm-start contract.
	X0 []float64
	// Damp, when positive, is the Tikhonov parameter λ of LSMR: it
	// minimizes ‖Ax − y‖² + λ²·‖x − x₀‖². Zero (the default) keeps the
	// plain least-squares problem bit-identical to the undamped code
	// path. Solvers without damping support ignore it.
	Damp float64
	// TolFloor, when non-empty, gives per-right-hand-side absolute
	// floors on the convergence target: column c stops once its
	// gradient-norm estimate ‖Aᵀr_c‖ falls below
	// max(Tol·‖Aᵀr₀_c‖, TolFloor[c]), and a start point whose gradient
	// is already inside the floor costs zero iterations. Warm-started
	// solves use it to stop at the absolute quality a cold solve would
	// reach (Tol·‖Aᵀy_c‖) instead of chasing Tol relative to an
	// already-small warm residual. CGLS and LSMR require length k; NNLS
	// ignores it (its stopping rule tracks the projected step, not the
	// gradient). A nil TolFloor leaves the pure relative rule untouched.
	TolFloor []float64
	// Work, when non-nil, supplies the solver's internal vectors so that
	// repeated solves (MWEM rounds, HDMM scoring, per-epsilon trials)
	// reuse buffers instead of allocating. The returned solution is never
	// taken from the workspace.
	Work *mat.Workspace
}

func (o Options) maxIter(cols int) int {
	if o.MaxIter > 0 {
		return o.MaxIter
	}
	return 2*cols + 100
}

// DefaultTol is the relative residual tolerance the solvers use when
// Options.Tol is zero. Exported so callers computing Options.TolFloor
// (the cold-equivalent target Tol·‖Aᵀy_c‖) can use the same constant.
const DefaultTol = 1e-10

func (o Options) tol() float64 {
	if o.Tol > 0 {
		return o.Tol
	}
	return DefaultTol
}

// Result reports how a solve terminated. X is the cols×K row-major
// solution panel (column c solves the c-th right-hand side); for the
// single-vector calls K is 1 and X is the estimate itself.
type Result struct {
	X          []float64
	K          int
	Iterations int
	Converged  bool // every column converged
}

// LeastSquares solves min_x ‖Ax − y‖₂ and returns the estimate
// (paper Definition 5.1), using LSMR as in the paper's §7.6. Weights,
// if non-nil, scale each measurement row: rows with smaller noise get
// proportionally larger weight.
func LeastSquares(a mat.Matrix, y []float64, weights []float64, opts Options) []float64 {
	if weights != nil {
		a = mat.RowScaled(weights, a)
		wy := opts.Work.Get(len(y))
		for i := range y {
			wy[i] = weights[i] * y[i]
		}
		defer opts.Work.Put(wy)
		y = wy
	}
	return LSMR(a, y, opts).X
}

// powerIterBlock is the subspace width of PowerIterL: wide enough that a
// start vector orthogonal-ish to the top eigenvector cannot stall the
// estimate, narrow enough that the panels stay cache-resident.
const powerIterBlock = 4

// PowerIterL estimates the largest eigenvalue of AᵀA (the Lipschitz
// constant of the least-squares gradient) by blocked subspace iteration,
// with an optional workspace (nil allocates) reused across calls. It
// iterates a cols×4 panel V ← AᵀA·V through the batched MatMat tier
// (one matrix pass per application instead of four), with a modified
// Gram–Schmidt re-orthonormalization per iteration; the returned
// estimate is the largest Ritz value max_c ‖AᵀA·v_c‖ over the
// orthonormal subspace, so a leading start vector that is deficient in
// the top eigenvector cannot stall the estimate — another column's
// value takes over. The iteration is deterministic and allocation-free
// with a warm workspace.
func PowerIterL(a mat.Matrix, iters int, ws *mat.Workspace) float64 {
	rows, cols := a.Dims()
	if cols == 0 || rows == 0 {
		return 0
	}
	k := powerIterBlock
	if cols < k {
		k = cols
	}
	v := ws.Get(cols * k)
	tmp := ws.Get(rows * k)
	next := ws.Get(cols * k)
	norms := ws.Get(k)
	defer func() {
		ws.Put(v)
		ws.Put(tmp)
		ws.Put(next)
		ws.Put(norms)
	}()
	// Deterministic start panel: column c mixes a distinct set of phases
	// so the columns are linearly independent.
	for i := 0; i < cols; i++ {
		for c := 0; c < k; c++ {
			v[i*k+c] = 1 + float64((i*(2*c+1)+c)%7)/7
		}
	}
	orthonormalizeCols(v, cols, k)
	var live [powerIterBlock]bool // no column is latched
	lambda := 0.0
	for it := 0; it < iters; it++ {
		mat.MatMat(a, tmp, v, k)
		mat.TMatMat(a, next, tmp, k)
		colDots(next, next, k, live[:k], norms)
		// Every column is a unit vector (or zero, if the subspace shrank),
		// so each ‖AᵀA·v_c‖ is a lower bound on λmax; keep the largest.
		best := 0.0
		for _, n2 := range norms[:k] {
			if n2 > best {
				best = n2
			}
		}
		lambda = math.Sqrt(best)
		if lambda == 0 {
			return 0
		}
		copy(v, next)
		orthonormalizeCols(v, cols, k)
	}
	return lambda
}

// orthonormalizeCols runs modified Gram–Schmidt over the k columns of
// the n×k row-major panel v. Columns that vanish after projection are
// left at zero (the subspace simply shrinks).
func orthonormalizeCols(v []float64, n, k int) {
	for c := 0; c < k; c++ {
		// Project out the previous columns.
		for c2 := 0; c2 < c; c2++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += v[i*k+c] * v[i*k+c2]
			}
			if dot != 0 {
				for i := 0; i < n; i++ {
					v[i*k+c] -= dot * v[i*k+c2]
				}
			}
		}
		var nn float64
		for i := 0; i < n; i++ {
			nn += v[i*k+c] * v[i*k+c]
		}
		if nn <= 0 {
			continue
		}
		inv := 1 / math.Sqrt(nn)
		for i := 0; i < n; i++ {
			v[i*k+c] *= inv
		}
	}
}

// MultWeights applies the multiplicative-weights update rule of MWEM
// (paper §5.5, Table 1 row MW): starting from estimate xHat with total
// mass preserved, for each of iters passes and each measurement row, the
// estimate is reweighted by exp(q·(answer − q·xHat)/(2·total)) and
// renormalized.
//
// The measurement matrix is touched only through row extraction
// (Mᵀeᵢ), matching the primitive-method contract. The basis and row
// buffers come from ws (nil allocates), so per-round plan loops (MWEM)
// reuse them across rounds.
func MultWeights(a mat.Matrix, y []float64, xHat []float64, iters int, ws *mat.Workspace) []float64 {
	rows, cols := a.Dims()
	if len(y) != rows || len(xHat) != cols {
		panic("solver: MultWeights dimension mismatch")
	}
	x := vec.Clone(xHat)
	total := vec.Sum(x)
	if total <= 0 {
		return x
	}
	basis := ws.GetZero(rows)
	q := ws.Get(cols)
	defer func() {
		ws.Put(basis)
		ws.Put(q)
	}()
	for it := 0; it < iters; it++ {
		for i := 0; i < rows; i++ {
			basis[i] = 1
			a.TMatVec(q, basis)
			basis[i] = 0
			est := vec.Dot(q, x)
			errV := y[i] - est
			// Multiplicative update; the 2*total damping follows MWEM.
			for j := range x {
				if q[j] != 0 {
					x[j] *= math.Exp(q[j] * errV / (2 * total))
				}
			}
			// Renormalize to preserve total mass.
			s := vec.Sum(x)
			if s > 0 {
				vec.Scale(total/s, x)
			}
		}
	}
	return x
}
