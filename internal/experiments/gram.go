package experiments

// The Gram benchmark shapes: the strategy shapes DirectLS and the
// scoring layers hit — a large dense matrix, a RangeQueries CSR
// strategy, a Kronecker product and the implicit RangeQueriesMat
// product form.

import "repro/internal/mat"

// GramCase names one Gram benchmark matrix; Build constructs it on
// demand.
type GramCase struct {
	Name  string
	Build func() mat.Matrix
}

// GramCases is the single definition of the Gram benchmark shapes the
// root-level testing.B benchmarks measure.
func GramCases() []GramCase {
	return []GramCase{
		{Name: "dense_2048x2048", Build: func() mat.Matrix {
			n := 2048
			d := mat.NewDense(n, n, nil)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					d.Set(i, j, float64((i*31+j*17)%9)-4)
				}
			}
			return d
		}},
		{Name: "csr_rangequeries_2048", Build: func() mat.Matrix {
			n := 2048
			h2 := mat.RangeQueries(n, mat.HierarchicalRanges(n, 2))
			s, ok := mat.ToSparse(h2, 0)
			if !ok {
				panic("experiments: sparse conversion of range strategy failed")
			}
			return s
		}},
		{Name: "kron_prefix2_64", Build: func() mat.Matrix {
			return mat.Kron(mat.Prefix(64), mat.Prefix(64))
		}},
		{Name: "rangequeries_implicit_1024", Build: func() mat.Matrix {
			return mat.RangeQueries(1024, mat.HierarchicalRanges(1024, 2))
		}},
	}
}
