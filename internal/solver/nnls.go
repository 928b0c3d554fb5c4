package solver

import (
	"math"

	"repro/internal/mat"
	"repro/internal/vec"
)

// NNLS solves min_{x≥0} ‖Ax − y‖₂ (paper Definition 5.2) by FISTA
// projected gradient with step 1/L, touching A only through mat-vec
// products. It substitutes for the paper's L-BFGS-B (see DESIGN.md §5).
// Weights, if non-nil, scale each measurement row. It is NNLSMulti with
// one right-hand side.
func NNLS(a mat.Matrix, y []float64, weights []float64, opts Options) []float64 {
	return NNLSMulti(a, y, 1, weights, opts).X
}

// NNLSMulti solves min_{x_c≥0} ‖A·x_c − y_c‖₂ for the k right-hand
// sides packed in the rows×k row-major panel y by FISTA projected
// gradient with a shared step 1/L (L is a property of A alone), sharing
// each iteration's matrix applications across columns via
// MatMat/TMatMat; a multi-epsilon trial sweep (one strategy, k epsilon
// columns) then costs a single panel solve. Weights, if non-nil, scale
// each measurement row. opts.X0, when non-nil, is a cols×k row-major
// panel whose columns, clamped non-negative, seed the iteration;
// MaxIter, Tol and Work apply per column with per-column convergence
// latches. opts.Damp and opts.TolFloor are ignored: the stopping rule
// tracks the projected step, not the gradient.
func NNLSMulti(a mat.Matrix, y []float64, k int, weights []float64, opts Options) Result {
	ws := opts.Work
	if k < 1 {
		panic("solver: NNLSMulti needs k >= 1")
	}
	if weights != nil {
		a = mat.RowScaled(weights, a)
		wy := ws.Get(len(y))
		for i := 0; i+k <= len(y); i += k {
			w := weights[i/k]
			yr := y[i : i+k]
			wr := wy[i : i+k]
			for c, v := range yr {
				wr[c] = w * v
			}
		}
		defer ws.Put(wy)
		y = wy
	}
	rows, cols := a.Dims()
	if len(y) != rows*k {
		panic("solver: NNLSMulti rhs panel length mismatch")
	}
	x := make([]float64, cols*k)
	res := Result{X: x, K: k}
	if opts.X0 != nil {
		if len(opts.X0) != cols*k {
			panic("solver: NNLSMulti X0 panel length mismatch")
		}
		copy(x, opts.X0)
		vec.ClampNonNeg(x)
	}
	lip := PowerIterL(a, 30, ws)
	if lip == 0 {
		// Zero operator: the zero panel, X0 or not.
		vec.Zero(x)
		res.Converged = true
		return res
	}
	step := 1 / lip
	z := ws.Get(cols * k) // momentum panel; starts at X (zero or clamped X0)
	copy(z, x)
	xPrev := ws.Get(cols * k)
	grad := ws.Get(cols * k)
	resid := ws.Get(rows * k)
	sc := ws.Get(2 * k) // per-column scalars
	gradNorm0, diff := sc[:k], sc[k:]
	defer func() {
		ws.Put(z)
		ws.Put(xPrev)
		ws.Put(grad)
		ws.Put(resid)
		ws.Put(sc)
	}()
	var latchBuf [8]bool
	done := latches(latchBuf[:], k)
	active := k
	t := 1.0
	maxIter := opts.maxIter(cols)
	tol := opts.tol()
	for it := 0; it < maxIter && active > 0; it++ {
		// grad_c = Aᵀ(A·z_c − y_c)
		mat.MatMat(a, resid, z, k)
		colSub(resid, y, k, done)
		mat.TMatMat(a, grad, resid, k)
		if it == 0 {
			colNorm2(grad, k, done, gradNorm0, diff)
			for c := 0; c < k; c++ {
				if gradNorm0[c] == 0 { // zero gradient: current x_c (zero or X0) is optimal
					done[c] = true
					active--
				}
			}
			if active == 0 {
				break
			}
		}
		// Projected gradient step from the momentum iterate.
		colProjStep(x, xPrev, z, grad, step, k, done)
		tNext := (1 + math.Sqrt(1+4*t*t)) / 2
		mom := (t - 1) / tNext
		colMomentum(z, x, xPrev, mom, diff, k, done)
		t = tNext
		res.Iterations = it + 1
		// Converged when the projected step is tiny relative to the
		// initial gradient scale.
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			if math.Sqrt(diff[c]) <= tol*step*gradNorm0[c] {
				done[c] = true
				active--
			}
		}
	}
	res.Converged = active == 0
	return res
}

// colSub computes dst[i,c] -= y[i,c] (the NNLS residual step).
func colSub(dst, y []float64, k int, done []bool) {
	for lo, n := 0, tileLen(k); lo < len(dst); lo += n {
		hi := min(lo+n, len(dst))
		dt, yt := dst[lo:hi], y[lo:hi]
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			for i := c; i < len(dt); i += k {
				dt[i] -= yt[i]
			}
		}
	}
}

// colProjStep saves x into xPrev and takes the clamped gradient step
// x[i,c] = max(0, z[i,c] − step·grad[i,c]).
func colProjStep(x, xPrev, z, grad []float64, step float64, k int, done []bool) {
	for lo, n := 0, tileLen(k); lo < len(x); lo += n {
		hi := min(lo+n, len(x))
		xt, pt, zt, gt := x[lo:hi], xPrev[lo:hi], z[lo:hi], grad[lo:hi]
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			for i := c; i < len(xt); i += k {
				pt[i] = xt[i]
				v := zt[i] - step*gt[i]
				if v < 0 {
					v = 0
				}
				xt[i] = v
			}
		}
	}
}

// colMomentum applies the FISTA momentum update z = x + mom·(x − xPrev)
// and stores each column's squared step ‖x − xPrev‖² in diff.
func colMomentum(z, x, xPrev []float64, mom float64, diff []float64, k int, done []bool) {
	for c := 0; c < k; c++ {
		if !done[c] {
			diff[c] = 0
		}
	}
	for lo, n := 0, tileLen(k); lo < len(z); lo += n {
		hi := min(lo+n, len(z))
		zt, xt, pt := z[lo:hi], x[lo:hi], xPrev[lo:hi]
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			s := diff[c]
			for i := c; i < len(zt); i += k {
				d := xt[i] - pt[i]
				zt[i] = xt[i] + mom*d
				s += d * d
			}
			diff[c] = s
		}
	}
}
