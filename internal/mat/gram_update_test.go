package mat

import (
	"math"
	"math/rand/v2"
	"testing"
)

// gramUpdateRandDense builds a random dense matrix with a sprinkle of
// exact zeros, so the update kernels' zero-quad skips get exercised.
func gramUpdateRandDense(rng *rand.Rand, rows, cols int) *Dense {
	d := NewDense(rows, cols, nil)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.IntN(4) == 0 {
				continue
			}
			d.Set(i, j, rng.Float64()*4-2)
		}
	}
	return d
}

// gramUpdateRandSparse builds a random CSR matrix over the same shape.
func gramUpdateRandSparse(rng *rand.Rand, rows, cols int) *Sparse {
	var tri []Triplet
	for i := 0; i < rows; i++ {
		for q := 0; q < 1+rng.IntN(4); q++ {
			tri = append(tri, Triplet{Row: i, Col: rng.IntN(cols), Val: rng.Float64()*4 - 2})
		}
	}
	return NewSparse(rows, cols, tri)
}

// denseRowBlock copies rows [lo, hi) of d into a standalone matrix.
func denseRowBlock(d *Dense, lo, hi int) *Dense {
	_, cols := d.Dims()
	return NewDense(hi-lo, cols, append([]float64(nil), d.Data()[lo*cols:hi*cols]...))
}

// sparseRowBlock extracts rows [lo, hi) of s as a standalone CSR matrix
// with row indices rebased to 0.
func sparseRowBlock(s *Sparse, lo, hi int) *Sparse {
	_, cols := s.Dims()
	var tri []Triplet
	for i := lo; i < hi; i++ {
		colIdx, vals := s.RowNNZ(i)
		for j, c := range colIdx {
			tri = append(tri, Triplet{Row: i - lo, Col: c, Val: vals[j]})
		}
	}
	return NewSparse(hi-lo, cols, tri)
}

// randomRowSplits cuts [0, rows) into 1–4 contiguous chunks.
func randomRowSplits(rng *rand.Rand, rows int) []int {
	cuts := []int{0, rows}
	for n := rng.IntN(3); n > 0 && rows > 1; n-- {
		cuts = append(cuts, 1+rng.IntN(rows-1))
	}
	// Insertion-sort the handful of cut points and drop duplicates.
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	out := cuts[:1]
	for _, c := range cuts[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// TestGramUpdateMatchesRebuildBitIdentical is the incremental-solve
// acceptance pin, fuzzed over shapes and row splits: accumulating a
// matrix's Gram via unweighted GramUpdate calls over consecutive row
// blocks must equal the one-shot serial Gram rebuild of the full
// matrix to the last bit, for both Dense and CSR operands.
func TestGramUpdateMatchesRebuildBitIdentical(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	rng := rand.New(rand.NewPCG(171, 173))
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.IntN(200)
		cols := 1 + rng.IntN(80)
		cuts := randomRowSplits(rng, rows)

		full := gramUpdateRandDense(rng, rows, cols)
		want := Gram(full)
		got := NewDense(cols, cols, nil)
		for i := 1; i < len(cuts); i++ {
			GramUpdate(got, denseRowBlock(full, cuts[i-1], cuts[i]), 1)
		}
		for i, v := range want.Data() {
			if got.Data()[i] != v {
				t.Fatalf("trial %d dense %dx%d cuts %v: cell %d: %v vs %v (not bit-identical)",
					trial, rows, cols, cuts, i, got.Data()[i], v)
			}
		}

		sp := gramUpdateRandSparse(rng, rows, cols)
		wantSp := Gram(sp)
		gotSp := NewDense(cols, cols, nil)
		for i := 1; i < len(cuts); i++ {
			GramUpdate(gotSp, sparseRowBlock(sp, cuts[i-1], cuts[i]), 1)
		}
		for i, v := range wantSp.Data() {
			if gotSp.Data()[i] != v {
				t.Fatalf("trial %d sparse %dx%d cuts %v: cell %d: %v vs %v (not bit-identical)",
					trial, rows, cols, cuts, i, gotSp.Data()[i], v)
			}
		}
	}
}

// TestGramUpdateChunkScheduleInvariant pins the property the serve
// layer's warm-vs-cold bit-identity rests on: the same row blocks
// folded in one at a time versus re-accumulated all at once from
// scratch land on identical bits (the per-cell add order is the same
// either way), including with per-block weights.
func TestGramUpdateChunkScheduleInvariant(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	rng := rand.New(rand.NewPCG(177, 179))
	const cols = 33
	blocks := []Matrix{
		gramUpdateRandDense(rng, 47, cols),
		gramUpdateRandSparse(rng, 61, cols),
		gramUpdateRandDense(rng, 15, cols),
		gramUpdateRandSparse(rng, 29, cols),
	}
	weights := []float64{1, 0.25, 3.5, 0.8}

	incremental := NewDense(cols, cols, nil)
	perGen := make([]*Dense, len(blocks))
	for i, b := range blocks {
		GramUpdate(incremental, b, weights[i])
		perGen[i] = NewDense(cols, cols, append([]float64(nil), incremental.Data()...))
	}
	for gen := range blocks {
		cold := NewDense(cols, cols, nil)
		for i := 0; i <= gen; i++ {
			GramUpdate(cold, blocks[i], weights[i])
		}
		for i, v := range cold.Data() {
			if perGen[gen].Data()[i] != v {
				t.Fatalf("generation %d: incremental state diverges from cold rebuild at cell %d: %v vs %v",
					gen, i, perGen[gen].Data()[i], v)
			}
		}
	}
}

// TestGramUpdateScaledMatchesReference checks the weighted update's
// values against c²·Gram(m) to floating-point tolerance (the scaling
// reassociates one multiply, so this is a value check, not a bit pin).
func TestGramUpdateScaledMatchesReference(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	rng := rand.New(rand.NewPCG(181, 183))
	const c = 1.7
	for _, m := range []Matrix{
		gramUpdateRandDense(rng, 50, 21),
		gramUpdateRandSparse(rng, 66, 27),
		RowScaled(onesVec(35), gramUpdateRandDense(rng, 35, 13)), // default (non-kernel) path
	} {
		_, cols := m.Dims()
		got := NewDense(cols, cols, nil)
		GramUpdate(got, m, c)
		want := Gram(m)
		for i, v := range want.Data() {
			ref := c * c * v
			if d := math.Abs(got.Data()[i] - ref); d > 1e-12*(1+math.Abs(ref)) {
				t.Fatalf("cols %d: cell %d: %v vs %v", cols, i, got.Data()[i], ref)
			}
		}
	}
}

func onesVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// TestAddScaledTMatMatMatchesRebuild mirrors the Gram pins for the
// right-hand-side companion: chunked accumulation over row blocks must
// match the one-shot full-matrix accumulation bit for bit, and the
// values must agree with TMatMat to tolerance.
func TestAddScaledTMatMatMatchesRebuild(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	rng := rand.New(rand.NewPCG(187, 189))
	const k = 4
	for trial := 0; trial < 20; trial++ {
		rows := 2 + rng.IntN(120)
		cols := 1 + rng.IntN(50)
		y := make([]float64, rows*k)
		for i := range y {
			y[i] = rng.Float64()*10 - 5
		}
		cuts := randomRowSplits(rng, rows)

		for _, c := range []float64{1, 0.64} {
			full := gramUpdateRandDense(rng, rows, cols)
			sp := gramUpdateRandSparse(rng, rows, cols)
			for name, blocks := range map[string][]Matrix{
				"dense":  chunkDense(full, cuts),
				"sparse": chunkSparse(sp, cuts),
			} {
				var m Matrix = full
				if name == "sparse" {
					m = sp
				}
				oneShot := make([]float64, cols*k)
				AddScaledTMatMat(oneShot, m, y, k, c)
				chunked := make([]float64, cols*k)
				for i, b := range blocks {
					AddScaledTMatMat(chunked, b, y[cuts[i]*k:cuts[i+1]*k], k, c)
				}
				for i, v := range oneShot {
					if chunked[i] != v {
						t.Fatalf("trial %d %s c=%v: chunked RHS diverges at %d: %v vs %v (not bit-identical)",
							trial, name, c, i, chunked[i], v)
					}
				}
				// Value check against the plain panel product.
				ref := make([]float64, cols*k)
				TMatMat(m, ref, y, k)
				for i, v := range ref {
					want := c * v
					if d := math.Abs(oneShot[i] - want); d > 1e-11*(1+math.Abs(want)) {
						t.Fatalf("trial %d %s c=%v: value off at %d: %v vs %v", trial, name, c, i, oneShot[i], want)
					}
				}
			}
		}
	}
}

func chunkDense(d *Dense, cuts []int) []Matrix {
	out := make([]Matrix, len(cuts)-1)
	for i := 1; i < len(cuts); i++ {
		out[i-1] = denseRowBlock(d, cuts[i-1], cuts[i])
	}
	return out
}

func chunkSparse(s *Sparse, cuts []int) []Matrix {
	out := make([]Matrix, len(cuts)-1)
	for i := 1; i < len(cuts); i++ {
		out[i-1] = sparseRowBlock(s, cuts[i-1], cuts[i])
	}
	return out
}
