package solver

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// DirectLS solves min_x ‖Ax − y‖₂ by forming the normal equations
// AᵀAx = Aᵀy densely and factoring with Cholesky. This is the "direct"
// baseline of the paper's Figure 5: cubic in the domain size, practical
// only for small n. Figure 5 hands it a materialised dense strategy,
// whose Gram matrix mat.Gram builds with its blocked Dense kernel
// instead of cols mat-vec pairs. The optional workspace (nil allocates)
// supplies everything except the returned solution.
func DirectLS(a mat.Matrix, y []float64, ws *mat.Workspace) []float64 {
	_, cols := a.Dims()
	g := mat.Gram(a) // cols × cols dense
	rhs := ws.Get(cols)
	a.TMatVec(rhs, y)
	defer ws.Put(rhs)
	// Tiny ridge for rank-deficient measurement sets keeps the factor
	// stable without visibly biasing well-posed solves.
	ridge := 1e-12 * (1 + maxDiag(g))
	for i := 0; i < cols; i++ {
		g.Set(i, i, g.At(i, i)+ridge)
	}
	l, err := cholesky(g)
	if err != nil {
		panic(fmt.Sprintf("solver: DirectLS factorization failed: %v", err))
	}
	return cholSolve(l, rhs, ws)
}

func maxDiag(g *mat.Dense) float64 {
	n, _ := g.Dims()
	m := 0.0
	for i := 0; i < n; i++ {
		if v := g.At(i, i); v > m {
			m = v
		}
	}
	return m
}

// cholesky factors the symmetric positive-definite matrix g = LLᵀ,
// returning the lower factor.
func cholesky(g *mat.Dense) (*mat.Dense, error) {
	n, c := g.Dims()
	if n != c {
		return nil, fmt.Errorf("cholesky: non-square %dx%d", n, c)
	}
	l := mat.NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := g.At(i, j)
			li := l.RowView(i)
			lj := l.RowView(j)
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("cholesky: non-positive pivot %g at %d", sum, i)
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// cholSolve solves LLᵀx = b given the lower Cholesky factor.
func cholSolve(l *mat.Dense, b []float64, ws *mat.Workspace) []float64 {
	n, _ := l.Dims()
	// Forward substitution: L z = b.
	z := ws.Get(n)
	defer ws.Put(z)
	for i := 0; i < n; i++ {
		sum := b[i]
		li := l.RowView(i)
		for k := 0; k < i; k++ {
			sum -= li[k] * z[k]
		}
		z[i] = sum / li[i]
	}
	// Back substitution: Lᵀ x = z.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := z[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x
}
