package experiments

// The mat-vec engine benchmark shapes: the ≥ 2^20-cell matrix families
// that dominate every plan in the paper's evaluation (Kronecker plans,
// stacked measurement unions, CSR strategies, dense fallbacks).

import "repro/internal/mat"

// MatVecCase names one engine benchmark matrix; Build constructs it on
// demand (the stacked 2^20-cell shapes take a moment, so callers build
// only what they measure).
type MatVecCase struct {
	Name  string
	Build func() mat.Matrix
}

// MatVecCases is the single definition of the engine benchmark shapes
// the root-level testing.B benchmarks measure.
func MatVecCases() []MatVecCase {
	const n = 1 << 20
	return []MatVecCase{
		{"kron_prefix_wavelet_2^20", func() mat.Matrix {
			return mat.Kron(mat.Prefix(1<<10), mat.Wavelet(1<<10))
		}},
		{"vstack_id_h2_prefix_2^20", func() mat.Matrix {
			return mat.VStack(mat.Identity(n), mat.RangeQueries(n, mat.HierarchicalRanges(n, 2)), mat.Prefix(n))
		}},
		{"sparse_h2_csr_2^20", func() mat.Matrix {
			h2 := mat.VStack(mat.Identity(n), mat.RangeQueries(n, mat.HierarchicalRanges(n, 2)))
			sparse, ok := mat.ToSparse(h2, 0)
			if !ok {
				panic("experiments: sparse conversion of H2 failed")
			}
			return sparse
		}},
		{"dense_2^11x2^11", func() mat.Matrix {
			dn := 1 << 11
			dense := mat.NewDense(dn, dn, nil)
			for i := 0; i < dn; i++ {
				for j := 0; j < dn; j++ {
					dense.Set(i, j, float64((i+j)%5)-2)
				}
			}
			return dense
		}},
	}
}
