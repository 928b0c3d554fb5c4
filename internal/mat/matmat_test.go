package mat

import (
	"math/rand/v2"
	"testing"

	"repro/internal/vec"
)

// matMatRef computes the panel product column by column through MatVec —
// the reference the batched kernels must match exactly in structure
// (they share per-column accumulation order) and to rounding otherwise.
func matMatRef(m Matrix, x []float64, k int) []float64 {
	r, c := m.Dims()
	dst := make([]float64, r*k)
	xc := make([]float64, c)
	yc := make([]float64, r)
	for col := 0; col < k; col++ {
		for j := 0; j < c; j++ {
			xc[j] = x[j*k+col]
		}
		m.MatVec(yc, xc)
		for i := 0; i < r; i++ {
			dst[i*k+col] = yc[i]
		}
	}
	return dst
}

func tMatMatRef(m Matrix, x []float64, k int) []float64 {
	return matMatRef(T(m), x, k)
}

// matMatCases builds one instance of every matrix type in the package,
// sized so both the serial and (at low thresholds) structured paths are
// exercised.
func matMatCases(rng *rand.Rand) map[string]Matrix {
	dense := NewDense(13, 9, nil)
	for i := range dense.data {
		dense.data[i] = rng.Float64()*4 - 2
	}
	var tri []Triplet
	for i := 0; i < 17; i++ {
		for q := 0; q < 3; q++ {
			tri = append(tri, Triplet{Row: i, Col: rng.IntN(11), Val: float64(rng.IntN(7)) - 3})
		}
	}
	sparse := NewSparse(17, 11, tri)
	diag := make([]float64, 9)
	w := make([]float64, 13)
	for i := range diag {
		diag[i] = rng.Float64()*2 - 1
	}
	for i := range w {
		w[i] = rng.Float64()*2 - 1
	}
	return map[string]Matrix{
		"identity":   Identity(8),
		"ones":       Ones(5, 7),
		"total":      Total(9),
		"prefix":     Prefix(10),
		"suffix":     Suffix(10),
		"wavelet":    Wavelet(16),
		"waveletAbs": Abs(Wavelet(8)),
		"dense":      dense,
		"sparse":     sparse,
		"vstack":     VStack(Identity(9), dense, Ones(2, 9)),
		"product":    Product(dense, Diag(diag)),
		"kron":       Kron(Prefix(4), dense),
		"kron3":      Kron(Identity(3), Prefix(4), Total(5)),
		"transpose":  T(dense),
		"scaled":     Scaled(-1.25, sparse),
		"diag":       Diag(diag),
		"rowscaled":  RowScaled(w, dense),
		"ranges": RangeQueries(12, []Range1D{
			{Lo: 0, Hi: 11}, {Lo: 3, Hi: 5}, {Lo: 7, Hi: 7}, {Lo: 0, Hi: 6},
		}),
		"ndranges": NDRangeQueries([]int{4, 3}, []RangeND{
			{Lo: []int{0, 0}, Hi: []int{3, 2}},
			{Lo: []int{1, 1}, Hi: []int{2, 2}},
		}),
	}
}

// TestMatMatMatchesMatVec pins every matrix type's batched kernels to
// the column-by-column MatVec reference across panel widths, including
// widths around the 4-wide unroll boundary.
func TestMatMatMatchesMatVec(t *testing.T) {
	rng := testRand()
	for name, m := range matMatCases(rng) {
		r, c := m.Dims()
		for _, k := range []int{1, 2, 3, 4, 5, 8} {
			x := randVec(rng, c*k)
			xt := randVec(rng, r*k)
			dst := make([]float64, r*k)
			dstT := make([]float64, c*k)
			MatMat(m, dst, x, k)
			TMatMat(m, dstT, xt, k)
			if !vec.AllClose(dst, matMatRef(m, x, k), 1e-12, 1e-12) {
				t.Errorf("%s: MatMat k=%d differs from MatVec reference", name, k)
			}
			if !vec.AllClose(dstT, tMatMatRef(m, xt, k), 1e-12, 1e-12) {
				t.Errorf("%s: TMatMat k=%d differs from MatVec reference", name, k)
			}
		}
	}
}

// TestMatMatParallelMatchesSerial pins the engine panel kernels to the
// serial path on matrices large enough to take the parallel route.
func TestMatMatParallelMatchesSerial(t *testing.T) {
	defer SetParallelism(0)
	const k = 6
	for name, m := range largeMats() {
		r, c := m.Dims()
		x := make([]float64, c*k)
		for i := range x {
			x[i] = float64(i%11) - 5
		}
		xt := make([]float64, r*k)
		for i := range xt {
			xt[i] = float64(i%7) - 3
		}
		SetParallelism(1)
		want := make([]float64, r*k)
		wantT := make([]float64, c*k)
		MatMat(m, want, x, k)
		TMatMat(m, wantT, xt, k)
		for _, p := range []int{2, 5} {
			SetParallelism(p)
			got := make([]float64, r*k)
			gotT := make([]float64, c*k)
			MatMat(m, got, x, k)
			TMatMat(m, gotT, xt, k)
			if !vec.AllClose(got, want, 1e-12, 1e-12) {
				t.Errorf("%s: parallel(%d) MatMat differs from serial", name, p)
			}
			if !vec.AllClose(gotT, wantT, 1e-12, 1e-12) {
				t.Errorf("%s: parallel(%d) TMatMat differs from serial", name, p)
			}
		}
	}
}

// TestMatMatZeroAllocs asserts the acceptance criterion: steady-state
// MatMat/TMatMat on Dense and CSR panels perform zero heap allocations
// on the serial path and through the parallel engine.
func TestMatMatZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache under the race detector")
	}
	defer SetParallelism(0)
	const k = 8
	mats := largeMats()
	for _, par := range []int{1, 4} {
		SetParallelism(par)
		for _, name := range []string{"dense", "sparse", "vstack", "kron"} {
			m := mats[name]
			r, c := m.Dims()
			x := make([]float64, c*k)
			dst := make([]float64, r*k)
			xt := make([]float64, r*k)
			dstT := make([]float64, c*k)
			for i := 0; i < 3; i++ {
				MatMat(m, dst, x, k)
				TMatMat(m, dstT, xt, k)
			}
			if a := testing.AllocsPerRun(20, func() { MatMat(m, dst, x, k) }); a != 0 {
				t.Errorf("%s p=%d: MatMat allocates %.1f/op, want 0", name, par, a)
			}
			if a := testing.AllocsPerRun(20, func() { TMatMat(m, dstT, xt, k) }); a != 0 {
				t.Errorf("%s p=%d: TMatMat allocates %.1f/op, want 0", name, par, a)
			}
		}
	}
}

// TestGramBlockedMatchesGeneric pins the blocked Dense/CSR Gram kernels
// to the column-at-a-time reference, serially and through the engine.
func TestGramBlockedMatchesGeneric(t *testing.T) {
	defer SetParallelism(0)
	rng := testRand()
	dense := NewDense(37, 21, nil)
	for i := range dense.data {
		dense.data[i] = rng.Float64()*4 - 2
	}
	var tri []Triplet
	for i := 0; i < 50; i++ {
		for q := 0; q < 4; q++ {
			tri = append(tri, Triplet{Row: i, Col: rng.IntN(19), Val: float64(rng.IntN(9)) - 4})
		}
	}
	sparse := NewSparse(50, 19, tri)
	// Shapes sized past the engine threshold and the partial-Gram merge
	// guards, so the p>1 leg takes the Dense kernel's parallel row-range
	// path (the CSR kernel is serial at every width).
	bigDense := NewDense(600, 64, nil)
	for i := range bigDense.data {
		bigDense.data[i] = rng.Float64()*2 - 1
	}
	var bigTri []Triplet
	for i := 0; i < 2400; i++ {
		for q := 0; q < 16; q++ {
			bigTri = append(bigTri, Triplet{Row: i, Col: rng.IntN(48), Val: float64(rng.IntN(9)) - 4})
		}
	}
	bigSparse := NewSparse(2400, 48, bigTri)
	cases := map[string]Matrix{
		"dense":     dense,
		"sparse":    sparse,
		"bigdense":  bigDense,
		"bigsparse": bigSparse,
	}
	for _, p := range []int{1, 4} {
		SetParallelism(p)
		for name, m := range cases {
			got := Gram(m)
			want := GramColumns(m)
			if !Equal(got, want, 1e-9) {
				t.Errorf("p=%d Gram(%s) disagrees with column build", p, name)
			}
		}
	}
}

// TestGramSparseWidthInvariant pins the Gram of a CSR operand to the
// same bits at every engine width: the CSR kernel is serial, so no
// per-worker partial Gram reassociates a cell's sum.
func TestGramSparseWidthInvariant(t *testing.T) {
	defer SetParallelism(0)
	rng := testRand()
	const rows, cols = 20000, 64
	tri := make([]Triplet, 0, rows*16)
	for i := 0; i < rows; i++ {
		for q := 0; q < 16; q++ {
			tri = append(tri, Triplet{Row: i, Col: rng.IntN(cols), Val: rng.Float64()*2 - 1})
		}
	}
	s := NewSparse(rows, cols, tri)
	SetParallelism(1)
	want := Gram(s)
	SetParallelism(4)
	differ := 0
	for rep := 0; rep < 20; rep++ {
		got := Gram(s)
		for i, v := range got.data {
			if v != want.data[i] {
				differ++
				break
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of 20 Gram runs at width 4 differ bitwise from width 1", differ)
	}
}

// TestGramIntoAllocFree asserts the acceptance criterion: the blocked
// Dense and CSR Gram kernels writing into a reused output are 0
// allocs/op steady-state, serially and on the engine path.
func TestGramIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache under the race detector")
	}
	defer SetParallelism(0)
	rng := testRand()
	n := 64
	dense := NewDense(600, n, nil)
	for i := range dense.data {
		dense.data[i] = rng.Float64()*2 - 1
	}
	var tri []Triplet
	for i := 0; i < 2400; i++ {
		for q := 0; q < 16; q++ {
			tri = append(tri, Triplet{Row: i, Col: rng.IntN(n), Val: float64(rng.IntN(9)) - 4})
		}
	}
	sparse := NewSparse(2400, n, tri)
	for _, par := range []int{1, 4} {
		SetParallelism(par)
		g := NewDense(n, n, nil)
		for name, into := range map[string]func(){
			"dense":  func() { denseGramInto(g, dense) },
			"sparse": func() { GramUpdate(g, sparse, 1) },
		} {
			into() // warm task pool and accumulators
			if a := testing.AllocsPerRun(10, into); a != 0 {
				t.Errorf("%s p=%d: Gram kernel allocates %.1f/op, want 0", name, par, a)
			}
		}
	}
}

// TestMaterializePanelPaths checks the MatMat-based Materialize against
// element-wise extraction for tall, wide and panel-unaligned shapes.
func TestMaterializePanelPaths(t *testing.T) {
	rng := testRand()
	shapes := []struct{ r, c int }{
		{3, 70},  // wide, c > materializePanel, unaligned
		{70, 3},  // tall
		{40, 40}, // square, panel-aligned at 32+8
		{1, 1},
	}
	for _, sh := range shapes {
		d := NewDense(sh.r, sh.c, nil)
		for i := range d.data {
			d.data[i] = rng.Float64()*4 - 2
		}
		m := Scaled(1, d) // wrap so Materialize can't shortcut on *Dense
		got := Materialize(m)
		for i := 0; i < sh.r; i++ {
			for j := 0; j < sh.c; j++ {
				if got.At(i, j) != d.At(i, j) {
					t.Fatalf("materialize %dx%d mismatch at (%d,%d)", sh.r, sh.c, i, j)
				}
			}
		}
	}
}

// FuzzMatMat cross-checks the CSR and Dense batched kernels against the
// MatVec reference on fuzz-generated matrices and panels.
func FuzzMatMat(f *testing.F) {
	f.Add([]byte{1, 2, 3, 9, 8, 7, 220, 13, 5}, uint8(3))
	f.Add([]byte{0, 0, 0, 255, 255, 255}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		rows, cols := 7, 5
		k := int(kRaw)%6 + 1
		tri := decodeTriplets(data, rows, cols)
		s := NewSparse(rows, cols, tri)
		d := Materialize(s)
		x := make([]float64, cols*k)
		xt := make([]float64, rows*k)
		for i := range x {
			x[i] = float64((i*13+len(data))%11) - 5
		}
		for i := range xt {
			xt[i] = float64((i*7+len(data))%13) - 6
		}
		want := matMatRef(s, x, k)
		wantT := tMatMatRef(s, xt, k)
		for name, m := range map[string]Matrix{"sparse": s, "dense": d} {
			dst := make([]float64, rows*k)
			dstT := make([]float64, cols*k)
			MatMat(m, dst, x, k)
			TMatMat(m, dstT, xt, k)
			if !vec.AllClose(dst, want, 1e-9, 1e-9) {
				t.Errorf("%s: MatMat k=%d mismatch", name, k)
			}
			if !vec.AllClose(dstT, wantT, 1e-9, 1e-9) {
				t.Errorf("%s: TMatMat k=%d mismatch", name, k)
			}
		}
		// Blocked Gram consistency on the same fuzzed structure.
		if !Equal(Gram(s), GramColumns(s), 1e-9) {
			t.Error("fuzzed CSR Gram disagrees with column build")
		}
	})
}
