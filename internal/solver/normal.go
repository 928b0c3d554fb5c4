package solver

import (
	"fmt"

	"repro/internal/mat"
)

// NormalMulti solves the regularized normal equations
//
//	(G + (ridge + λ²)·I)·X = B
//
// for the k right-hand sides packed in the n×k row-major panel b, given
// a precomputed Gram matrix G (mat.Gram output, or an
// incrementally maintained mat.GramUpdate accumulation). It is the
// direct counterpart of the iterative Multi solvers for callers that
// already own the normal-equation state: one dense Cholesky factor
// prices all k columns, and — unlike warm-started Krylov solves — the
// answer depends only on the bits of G and B, so two callers that
// accumulated identical state (for example an incremental rank-k update
// versus a from-scratch rebuild over the same blocks in the same order)
// get bit-identical panels.
//
// ridge is the same tiny stabilizer DirectLS applies
// (1e-12·(1 + max diag G)), so rank-deficient measurement logs factor
// without visibly biasing well-posed systems; damp = λ adds the
// Tikhonov term of Options.Damp on top. g and b are not modified; ws
// supplies the scratch copies. Like DirectLS, it panics if the
// stabilized factorization still fails (G badly non-PSD — corrupted
// state, not a runtime condition). Iterations is reported as 1 (one
// factorization) and Converged is always true.
func NormalMulti(g *mat.Dense, b []float64, k int, damp float64, ws *mat.Workspace) Result {
	n, c := g.Dims()
	if n != c {
		panic(fmt.Sprintf("solver: NormalMulti needs a square Gram matrix, got %dx%d", n, c))
	}
	if k < 1 {
		panic("solver: NormalMulti needs k >= 1")
	}
	if len(b) != n*k {
		panic("solver: NormalMulti rhs panel length mismatch")
	}
	// Factor a stabilized copy so the caller's accumulated G survives.
	buf := ws.Get(n * n)
	copy(buf, g.Data())
	gc := mat.NewDense(n, n, buf)
	ridge := 1e-12*(1+maxDiag(g)) + damp*damp
	for i := 0; i < n; i++ {
		gc.Set(i, i, gc.At(i, i)+ridge)
	}
	l, err := cholesky(gc)
	ws.Put(buf)
	if err != nil {
		panic(fmt.Sprintf("solver: NormalMulti factorization failed: %v", err))
	}

	x := make([]float64, n*k)
	// Forward substitution, k columns in lockstep: L·Z = B.
	z := ws.Get(n * k)
	for i := 0; i < n; i++ {
		li := l.RowView(i)
		zi := z[i*k : (i+1)*k]
		copy(zi, b[i*k:(i+1)*k])
		for j := 0; j < i; j++ {
			lij := li[j]
			if lij == 0 {
				continue
			}
			zj := z[j*k : (j+1)*k]
			for cc, v := range zj {
				zi[cc] -= lij * v
			}
		}
		// Divide (rather than multiply by a reciprocal) so each column
		// runs exactly cholSolve's scalar arithmetic.
		for cc := range zi {
			zi[cc] /= li[i]
		}
	}
	// Back substitution: Lᵀ·X = Z.
	for i := n - 1; i >= 0; i-- {
		xi := x[i*k : (i+1)*k]
		copy(xi, z[i*k:(i+1)*k])
		for j := i + 1; j < n; j++ {
			lji := l.At(j, i)
			if lji == 0 {
				continue
			}
			xj := x[j*k : (j+1)*k]
			for cc, v := range xj {
				xi[cc] -= lji * v
			}
		}
		for cc := range xi {
			xi[cc] /= l.At(i, i)
		}
	}
	ws.Put(z)
	return Result{X: x, K: k, Iterations: 1, Converged: true}
}
