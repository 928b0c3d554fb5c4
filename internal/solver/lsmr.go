package solver

import (
	"math"

	"repro/internal/mat"
)

// LSMR solves min_x ‖Ax − y‖₂ with the algorithm of Fong & Saunders
// (SIAM J. Sci. Comput. 2011), the iterative method the paper's §7.6
// uses. It is LSMRMulti with one right-hand side.
func LSMR(a mat.Matrix, y []float64, opts Options) Result {
	return LSMRMulti(a, y, 1, opts)
}

// LSMRMulti solves min ‖A·x_c − y_c‖₂ for the k right-hand sides packed
// in the rows×k row-major panel y with the LSMR algorithm of Fong &
// Saunders (SIAM J. Sci. Comput. 2011), k Golub–Kahan bidiagonalization
// recurrences run in lockstep, so the two matrix applications per
// iteration are one MatMat and one TMatMat for all columns. Like CGLS it
// touches A only through those products; unlike CGLS it is analytically
// equivalent to MINRES on the normal equations, so the estimate ‖Aᵀr_k‖
// decreases monotonically, giving a more reliable stopping rule on
// ill-conditioned systems. From x₀ = 0 it converges to the minimum-norm
// least-squares solution.
//
// With opts.Damp = λ > 0 it minimizes ‖Ax − y‖² + λ²·‖x − x₀‖² instead
// (the augmented system [A; λI]): the damping folds into the first
// plane rotation through α̂ = hypot(ᾱ, λ), and the stopping rule then
// tracks the augmented gradient ‖Âᵀr̂‖. The λ = 0 path is untouched and
// stays bit-identical to the undamped algorithm.
//
// opts.X0, when non-nil, is a cols×k row-major panel warm-starting every
// column (see the package docs for the warm-start contract); MaxIter,
// Tol, TolFloor (length k when set) and Work apply per column.
func LSMRMulti(a mat.Matrix, y []float64, k int, opts Options) Result {
	rows, cols := a.Dims()
	if k < 1 {
		panic("solver: LSMRMulti needs k >= 1")
	}
	if len(y) != rows*k {
		panic("solver: LSMRMulti rhs panel length mismatch")
	}
	if len(opts.TolFloor) != 0 && len(opts.TolFloor) != k {
		panic("solver: LSMRMulti TolFloor length mismatch")
	}
	ws := opts.Work
	x := make([]float64, cols*k)
	res := Result{X: x, K: k}

	u := ws.Get(rows * k) // left Lanczos panel; starts as the rhs residual
	copy(u, y)
	if opts.X0 != nil {
		if len(opts.X0) != cols*k {
			panic("solver: LSMRMulti X0 panel length mismatch")
		}
		copy(x, opts.X0)
		panelResidual(a, u, x, k, ws)
	}
	v := ws.Get(cols * k)
	h := ws.Get(cols * k)
	hBar := ws.GetZero(cols * k)
	tmpRow := ws.Get(rows * k)
	tmpCol := ws.Get(cols * k)
	// Per-column scalar state of the rotations and panel coefficients.
	sc := ws.Get(14 * k)
	col := func(i int) []float64 { return sc[i*k : (i+1)*k] }
	alpha, beta, alphaNext, zetaBar := col(0), col(1), col(2), col(3)
	alphaBar, rho, rhoBar, cBar, sBar := col(4), col(5), col(6), col(7), col(8)
	target, coefHBar, step, coefH, sum := col(9), col(10), col(11), col(12), col(13)
	defer func() {
		ws.Put(u)
		ws.Put(v)
		ws.Put(h)
		ws.Put(hBar)
		ws.Put(tmpRow)
		ws.Put(tmpCol)
		ws.Put(sc)
	}()

	var latchBuf [8]bool
	done := latches(latchBuf[:], k)
	colNorm2(u, k, done, beta, sum)
	colInvScale(beta, u, k, done)
	mat.TMatMat(a, v, u, k)
	colNorm2(v, k, done, alpha, sum)
	colInvScale(alpha, v, k, done)

	tol := opts.tol()
	active := 0
	for c := 0; c < k; c++ {
		normAr0 := alpha[c] * beta[c]
		target[c] = tol * normAr0
		if len(opts.TolFloor) > 0 && opts.TolFloor[c] > target[c] {
			target[c] = opts.TolFloor[c]
		}
		if normAr0 == 0 || (len(opts.TolFloor) > 0 && normAr0 <= target[c]) {
			// Zero gradient, or the start point already meets the absolute
			// floor: current x_c (zero or X0) stands.
			done[c] = true
			continue
		}
		active++
		// Initialization per Fong & Saunders, Algorithm 1.
		zetaBar[c] = normAr0
		alphaBar[c] = alpha[c]
		rho[c] = 1
		rhoBar[c] = 1
		cBar[c] = 1
		sBar[c] = 0
	}
	copy(h, v)

	maxIter := opts.maxIter(cols)
	for it := 1; it <= maxIter && active > 0; it++ {
		// Continue the bidiagonalization:
		// β_{k+1} u_{k+1} = A v_k − α_k u_k
		mat.MatMat(a, tmpRow, v, k)
		colBidiagStep(u, tmpRow, alpha, k, done)
		colNorm2(u, k, done, beta, sum)
		colInvScale(beta, u, k, done)
		// α_{k+1} v_{k+1} = Aᵀ u_{k+1} − β_{k+1} v_k
		mat.TMatMat(a, tmpCol, u, k)
		colBidiagStep(v, tmpCol, beta, k, done)
		colNorm2(v, k, done, alphaNext, sum)
		colInvScale(alphaNext, v, k, done)
		res.Iterations = it
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			// First plane rotation, eliminating β_{k+1}. Damping enters
			// here: the extra λ row of the augmented system is rotated
			// into ᾱ first (α̂ = hypot(ᾱ, λ)), and the branch keeps the
			// λ = 0 path bit-identical to the undamped recurrence.
			alphaHat := alphaBar[c]
			if opts.Damp > 0 {
				alphaHat = math.Hypot(alphaBar[c], opts.Damp)
			}
			rhoOld := rho[c]
			rho[c] = math.Hypot(alphaHat, beta[c])
			cos := alphaHat / rho[c]
			sin := beta[c] / rho[c]
			theta := sin * alphaNext[c]
			alphaBar[c] = cos * alphaNext[c]
			// Second plane rotation.
			rhoBarOld := rhoBar[c]
			thetaBar := sBar[c] * rho[c]
			rhoTemp := cBar[c] * rho[c]
			rhoBar[c] = math.Hypot(cBar[c]*rho[c], theta)
			cBar[c] = rhoTemp / rhoBar[c]
			sBar[c] = theta / rhoBar[c]
			zeta := cBar[c] * zetaBar[c]
			zetaBar[c] = -sBar[c] * zetaBar[c]
			// Column-c coefficients of the h̄ / x / h panel updates below.
			coefHBar[c] = thetaBar * rho[c] / (rhoOld * rhoBarOld)
			step[c] = zeta / (rho[c] * rhoBar[c])
			coefH[c] = theta / rho[c]
			alpha[c] = alphaNext[c]
		}
		colBidiagStep(hBar, h, coefHBar, k, done) // h̄ = h − coef·h̄
		colAxpy(step, hBar, x, k, done)           // x += step·h̄
		colBidiagStep(h, v, coefH, k, done)       // h = v − coef·h
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			if math.Abs(zetaBar[c]) <= target[c] { // estimate of ‖Aᵀr_c‖
				done[c] = true
				active--
			}
		}
	}
	res.Converged = active == 0
	return res
}

// colBidiagStep computes dst[i,c] = tmp[i,c] − coef[c]·dst[i,c] (the
// bidiagonalization continuation and the LSMR h̄ / h updates share this
// form).
func colBidiagStep(dst, tmp, coef []float64, k int, done []bool) {
	for lo, n := 0, tileLen(k); lo < len(dst); lo += n {
		hi := min(lo+n, len(dst))
		dt, tt := dst[lo:hi], tmp[lo:hi]
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			a := coef[c]
			for i := c; i < len(dt); i += k {
				dt[i] = tt[i] - a*dt[i]
			}
		}
	}
}

// colNorm2 computes the Euclidean norm of every live panel column with
// vec.Norm2's arithmetic: the max-|·| overflow guard, then the scaled
// sum of squares in row order. out holds the running max-|·| until the
// end; sum is scratch for the per-column squared sums.
func colNorm2(a []float64, k int, done []bool, out, sum []float64) {
	for c := 0; c < k; c++ {
		if !done[c] {
			out[c], sum[c] = 0, 0
		}
	}
	n := tileLen(k)
	for lo := 0; lo < len(a); lo += n {
		at := a[lo:min(lo+n, len(a))]
		for c := 0; c < k; c++ {
			if done[c] {
				continue
			}
			m := out[c]
			for i := c; i < len(at); i += k {
				if av := math.Abs(at[i]); av > m {
					m = av
				}
			}
			out[c] = m
		}
	}
	for lo := 0; lo < len(a); lo += n {
		at := a[lo:min(lo+n, len(a))]
		for c := 0; c < k; c++ {
			if done[c] || out[c] == 0 {
				continue
			}
			m, s := out[c], sum[c]
			for i := c; i < len(at); i += k {
				r := at[i] / m
				s += r * r
			}
			sum[c] = s
		}
	}
	for c := 0; c < k; c++ {
		if !done[c] {
			// An all-zero column keeps out = 0, as Norm2 returns.
			out[c] *= math.Sqrt(sum[c])
		}
	}
}

// colInvScale divides every live panel column by its positive norm the
// way vec.Scale(1/norm, ·) does: one reciprocal, then a multiply per
// element. Zero-norm columns are left untouched.
func colInvScale(norm, panel []float64, k int, done []bool) {
	for lo, n := 0, tileLen(k); lo < len(panel); lo += n {
		pt := panel[lo:min(lo+n, len(panel))]
		for c := 0; c < k; c++ {
			if done[c] || !(norm[c] > 0) {
				continue
			}
			inv := 1 / norm[c]
			for i := c; i < len(pt); i += k {
				pt[i] *= inv
			}
		}
	}
}
