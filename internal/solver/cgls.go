package solver

import (
	"math"

	"repro/internal/mat"
)

// CGLS solves min_x ‖Ax − y‖₂ by conjugate gradients on the normal
// equations, touching A only through MatVec and TMatVec. It belongs to
// the same Krylov family as LSMR used in the paper and has the identical
// O(k·Time(A)) cost model. It is CGLSMulti with one right-hand side.
func CGLS(a mat.Matrix, y []float64, opts Options) Result {
	return CGLSMulti(a, y, 1, opts)
}

// CGLSMulti solves min ‖A·x_c − y_c‖₂ for the k right-hand sides packed
// in the rows×k row-major panel y, sharing each iteration's matrix
// applications across columns via MatMat/TMatMat. opts.X0, when
// non-nil, is a cols×k row-major panel warm-starting every column (see
// the package docs for the warm-start contract); MaxIter, Tol, TolFloor
// (length k when set) and Work apply per column. opts.Damp is ignored.
func CGLSMulti(a mat.Matrix, y []float64, k int, opts Options) Result {
	rows, cols := a.Dims()
	if k < 1 {
		panic("solver: CGLSMulti needs k >= 1")
	}
	if len(y) != rows*k {
		panic("solver: CGLSMulti rhs panel length mismatch")
	}
	if len(opts.TolFloor) != 0 && len(opts.TolFloor) != k {
		panic("solver: CGLSMulti TolFloor length mismatch")
	}
	ws := opts.Work
	x := make([]float64, cols*k)
	res := Result{X: x, K: k}

	r := ws.Get(rows * k) // residual panel: y - A·X (= y when X starts at zero)
	copy(r, y)
	if opts.X0 != nil {
		if len(opts.X0) != cols*k {
			panic("solver: CGLSMulti X0 panel length mismatch")
		}
		copy(x, opts.X0)
		panelResidual(a, r, x, k, ws)
	}
	s := ws.Get(cols * k) // s = Aᵀ·R
	mat.TMatMat(a, s, r, k)
	p := ws.Get(cols * k)
	copy(p, s)
	q := ws.Get(rows * k)
	sc := ws.Get(6 * k) // per-column scalars
	gamma, gammaNew, qq := sc[:k], sc[k:2*k], sc[2*k:3*k]
	alpha, beta, target := sc[3*k:4*k], sc[4*k:5*k], sc[5*k:]
	defer func() {
		ws.Put(r)
		ws.Put(s)
		ws.Put(p)
		ws.Put(q)
		ws.Put(sc)
	}()

	tol := opts.tol()
	var latchBuf [8]bool
	done := latches(latchBuf[:], k)
	colDots(s, s, k, done, gamma)
	active := 0
	for c := 0; c < k; c++ {
		norm0 := math.Sqrt(gamma[c])
		target[c] = tol * norm0
		if len(opts.TolFloor) > 0 && opts.TolFloor[c] > target[c] {
			target[c] = opts.TolFloor[c]
		}
		if norm0 == 0 || (len(opts.TolFloor) > 0 && norm0 <= target[c]) {
			// Zero gradient, or the start point already meets the absolute
			// floor: x_c (zero or X0) stands.
			done[c] = true
		} else {
			active++
		}
	}
	// A column whose direction the matrix maps to zero cannot take a
	// step; it stops where it is and the solve reports no convergence.
	stalled := false
	maxIter := opts.maxIter(cols)
	for it := 0; it < maxIter && active > 0; it++ {
		mat.MatMat(a, q, p, k)
		colDots(q, q, k, done, qq)
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			if qq[c] == 0 {
				done[c] = true
				active--
				stalled = true
				continue
			}
			alpha[c] = gamma[c] / qq[c]
		}
		if active == 0 {
			break
		}
		colAxpy(alpha, p, x, k, done)
		colAxmy(alpha, q, r, k, done)
		mat.TMatMat(a, s, r, k)
		colDots(s, s, k, done, gammaNew)
		res.Iterations = it + 1
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			if math.Sqrt(gammaNew[c]) <= target[c] {
				done[c] = true
				active--
				continue
			}
			beta[c] = gammaNew[c] / gamma[c]
			gamma[c] = gammaNew[c]
		}
		colXpby(s, beta, p, k, done)
	}
	res.Converged = active == 0 && !stalled
	return res
}

// panelResidual subtracts A·X from the rows×k residual panel r (which
// holds y on entry): one MatMat pass, then the elementwise y[i] − ax[i].
func panelResidual(a mat.Matrix, r, x []float64, k int, ws *mat.Workspace) {
	rows, _ := a.Dims()
	ax := ws.Get(rows * k)
	mat.MatMat(a, ax, x, k)
	for i, v := range ax {
		r[i] -= v
	}
	ws.Put(ax)
}

// latches returns k cleared per-column convergence latches, backed by
// buf when they fit so the common small-k solves allocate none.
func latches(buf []bool, k int) []bool {
	if k <= len(buf) {
		return buf[:k]
	}
	return make([]bool, k)
}

// The panel helpers walk a row-major panel one tile of whole rows at a
// time and, inside a tile, one column at a time (stride k), skipping the
// columns whose done latch is set, so a latched column stays bit-for-bit
// frozen. Every live column runs the arithmetic of a flat single-vector
// loop in row order, and at k = 1 each helper is that flat loop. The
// tile keeps a wide panel's strided column passes inside L1, so the
// panel is read from memory once, not once per column.

// colTile is the number of panel elements in one tile.
const colTile = 512

// tileLen returns the length of one tile of a k-column panel: as many
// whole rows as fit in colTile elements, and at least one.
func tileLen(k int) int {
	return max(1, colTile/k) * k
}

// colDots computes per-column dot products of two panels:
// out[c] = Σᵢ a[i,c]·b[i,c], accumulated in row order.
func colDots(a, b []float64, k int, done []bool, out []float64) {
	for c := 0; c < k; c++ {
		if !done[c] {
			out[c] = 0
		}
	}
	for lo, n := 0, tileLen(k); lo < len(a); lo += n {
		hi := min(lo+n, len(a))
		at, bt := a[lo:hi], b[lo:hi]
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			s := out[c]
			for i := c; i < len(at); i += k {
				s += at[i] * bt[i]
			}
			out[c] = s
		}
	}
}

// colAxpy computes y[i,c] += coef[c]·x[i,c].
func colAxpy(coef, x, y []float64, k int, done []bool) {
	for lo, n := 0, tileLen(k); lo < len(x); lo += n {
		hi := min(lo+n, len(x))
		xt, yt := x[lo:hi], y[lo:hi]
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			a := coef[c]
			for i := c; i < len(xt); i += k {
				yt[i] += a * xt[i]
			}
		}
	}
}

// colAxmy computes y[i,c] -= coef[c]·x[i,c].
func colAxmy(coef, x, y []float64, k int, done []bool) {
	for lo, n := 0, tileLen(k); lo < len(x); lo += n {
		hi := min(lo+n, len(x))
		xt, yt := x[lo:hi], y[lo:hi]
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			a := coef[c]
			for i := c; i < len(xt); i += k {
				yt[i] -= a * xt[i]
			}
		}
	}
}

// colXpby computes y[i,c] = x[i,c] + coef[c]·y[i,c] (the CG direction
// update).
func colXpby(x, coef, y []float64, k int, done []bool) {
	for lo, n := 0, tileLen(k); lo < len(x); lo += n {
		hi := min(lo+n, len(x))
		xt, yt := x[lo:hi], y[lo:hi]
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			b := coef[c]
			for i := c; i < len(xt); i += k {
				yt[i] = xt[i] + b*yt[i]
			}
		}
	}
}
