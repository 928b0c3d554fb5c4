package mat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func testRand() *rand.Rand { return rand.New(rand.NewPCG(7, 11)) }

// randVec returns a deterministic pseudo-random vector for tests.
func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*4 - 2
	}
	return x
}

// checkAgainstDense verifies that m's MatVec and TMatVec agree with its
// dense materialization on random vectors.
func checkAgainstDense(t *testing.T, m Matrix, trials int) {
	t.Helper()
	rng := testRand()
	d := Materialize(m)
	r, c := m.Dims()
	dr, dc := d.Dims()
	if r != dr || c != dc {
		t.Fatalf("dims mismatch: implicit %dx%d dense %dx%d", r, c, dr, dc)
	}
	for k := 0; k < trials; k++ {
		x := randVec(rng, c)
		got := Mul(m, x)
		want := Mul(d, x)
		if !vec.AllClose(got, want, 1e-9, 1e-9) {
			t.Fatalf("MatVec mismatch (trial %d):\n got %v\nwant %v", k, got, want)
		}
		y := randVec(rng, r)
		gotT := TMul(m, y)
		wantT := TMul(d, y)
		if !vec.AllClose(gotT, wantT, 1e-9, 1e-9) {
			t.Fatalf("TMatVec mismatch (trial %d):\n got %v\nwant %v", k, gotT, wantT)
		}
	}
}

func TestIdentityMatVec(t *testing.T) {
	m := Identity(5)
	x := []float64{1, 2, 3, 4, 5}
	if got := Mul(m, x); !vec.AllClose(got, x, 0, 0) {
		t.Fatalf("identity changed input: %v", got)
	}
	checkAgainstDense(t, m, 3)
}

func TestOnesMatVec(t *testing.T) {
	m := Ones(3, 4)
	x := []float64{1, 2, 3, 4}
	got := Mul(m, x)
	for _, v := range got {
		if v != 10 {
			t.Fatalf("Ones matvec = %v, want all 10", got)
		}
	}
	checkAgainstDense(t, m, 3)
}

func TestTotalIsSingleRowOnes(t *testing.T) {
	m := Total(6)
	r, c := m.Dims()
	if r != 1 || c != 6 {
		t.Fatalf("Total dims = %dx%d", r, c)
	}
	if got := Mul(m, []float64{1, 1, 1, 1, 1, 1}); got[0] != 6 {
		t.Fatalf("Total sum = %v", got)
	}
}

func TestPrefixMatchesPaperExample(t *testing.T) {
	// Paper Example 7.1: 5x5 lower-triangular ones.
	m := Prefix(5)
	d := Materialize(m)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if j <= i {
				want = 1
			}
			if d.At(i, j) != want {
				t.Fatalf("Prefix[%d][%d] = %v, want %v", i, j, d.At(i, j), want)
			}
		}
	}
	checkAgainstDense(t, m, 3)
}

func TestSuffixIsPrefixTranspose(t *testing.T) {
	if !Equal(Suffix(7), T(Prefix(7)), 0) {
		t.Fatal("Suffix != Prefixᵀ")
	}
	checkAgainstDense(t, Suffix(6), 3)
}

func TestWaveletAgainstDense(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		checkAgainstDense(t, Wavelet(n), 3)
	}
}

func TestWaveletTotalRow(t *testing.T) {
	// Row 0 of the averaging Haar transform is the overall mean.
	w := Wavelet(8)
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := Mul(w, x)
	if math.Abs(y[0]-4.5) > 1e-12 {
		t.Fatalf("wavelet row 0 = %v, want mean 4.5", y[0])
	}
}

func TestWaveletAbsMatchDense(t *testing.T) {
	for _, n := range []int{2, 4, 16} {
		w := Wavelet(n)
		d := Materialize(w)
		if !Equal(Abs(w), d.Abs(), 1e-12) {
			t.Fatalf("wavelet abs mismatch at n=%d", n)
		}
	}
}

func TestWaveletRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Wavelet(6) did not panic")
		}
	}()
	Wavelet(6)
}

func TestDenseMatVec(t *testing.T) {
	d := DenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := Mul(d, []float64{1, -1})
	want := []float64{-1, -1, -1}
	if !vec.AllClose(got, want, 0, 0) {
		t.Fatalf("dense matvec = %v, want %v", got, want)
	}
	gotT := TMul(d, []float64{1, 1, 1})
	if !vec.AllClose(gotT, []float64{9, 12}, 0, 0) {
		t.Fatalf("dense tmatvec = %v", gotT)
	}
}

func TestSparseAgainstDense(t *testing.T) {
	rng := testRand()
	for trial := 0; trial < 10; trial++ {
		r := 1 + rng.IntN(8)
		c := 1 + rng.IntN(8)
		d := NewDense(r, c, nil)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if rng.Float64() < 0.4 {
					d.Set(i, j, rng.Float64()*4-2)
				}
			}
		}
		s, _ := ToSparse(d, 0)
		if !Equal(s, d, 1e-12) {
			t.Fatalf("sparse != dense (trial %d)", trial)
		}
		checkAgainstDense(t, s, 2)
	}
}

func TestSparseDuplicateTripletsSum(t *testing.T) {
	s := NewSparse(2, 2, []Triplet{{0, 0, 1}, {0, 0, 2}, {1, 1, -3}, {1, 1, 3}})
	d := Materialize(s)
	if d.At(0, 0) != 3 {
		t.Fatalf("duplicate sum = %v, want 3", d.At(0, 0))
	}
	if d.At(1, 1) != 0 || s.NNZ() != 1 {
		t.Fatalf("zero-sum entry kept: nnz=%d", s.NNZ())
	}
}

func TestSparseTransposed(t *testing.T) {
	s := NewSparse(3, 2, []Triplet{{0, 1, 2}, {2, 0, -1}})
	want := NewSparse(2, 3, []Triplet{{1, 0, 2}, {0, 2, -1}})
	if !Equal(T(s), want, 0) {
		t.Fatal("lazy transpose of a CSR matrix != its explicit transpose")
	}
}

func TestVStackAgainstDense(t *testing.T) {
	m := VStack(Identity(4), Total(4), Prefix(4))
	r, c := m.Dims()
	if r != 9 || c != 4 {
		t.Fatalf("VStack dims = %dx%d", r, c)
	}
	checkAgainstDense(t, m, 5)
}

func TestVStackColumnMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VStack with mismatched columns did not panic")
		}
	}()
	VStack(Identity(3), Identity(4))
}

func TestProductAgainstDense(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 0, 2}, {0, 1, -1}})
	b := DenseFromRows([][]float64{{1, 1}, {2, 0}, {0, 3}})
	p := Product(a, b)
	checkAgainstDense(t, p, 5)
	// Verify against hand-computed product.
	d := Materialize(p)
	want := DenseFromRows([][]float64{{1, 7}, {2, -3}})
	if !Equal(d, want, 1e-12) {
		t.Fatalf("product = %v", d)
	}
}

func TestKroneckerAgainstDense(t *testing.T) {
	rng := testRand()
	for trial := 0; trial < 6; trial++ {
		ar, ac := 1+rng.IntN(4), 1+rng.IntN(4)
		br, bc := 1+rng.IntN(4), 1+rng.IntN(4)
		a := NewDense(ar, ac, nil)
		b := NewDense(br, bc, nil)
		for i := range a.Data() {
			a.Data()[i] = rng.Float64()*2 - 1
		}
		for i := range b.Data() {
			b.Data()[i] = rng.Float64()*2 - 1
		}
		k := Kron(a, b)
		// Reference: definition 7.2 materialization.
		want := NewDense(ar*br, ac*bc, nil)
		for i1 := 0; i1 < ar; i1++ {
			for i2 := 0; i2 < br; i2++ {
				for j1 := 0; j1 < ac; j1++ {
					for j2 := 0; j2 < bc; j2++ {
						want.Set(i1*br+i2, j1*bc+j2, a.At(i1, j1)*b.At(i2, j2))
					}
				}
			}
		}
		if !Equal(k, want, 1e-12) {
			t.Fatalf("kron mismatch trial %d", trial)
		}
		checkAgainstDense(t, k, 2)
	}
}

func TestKronThreeFactors(t *testing.T) {
	k := Kron(Identity(2), Total(3), Prefix(2))
	r, c := k.Dims()
	if r != 2*1*2 || c != 2*3*2 {
		t.Fatalf("kron dims = %dx%d", r, c)
	}
	checkAgainstDense(t, k, 4)
}

func TestKronAbsDistribute(t *testing.T) {
	a := DenseFromRows([][]float64{{1, -2}, {-3, 4}})
	b := DenseFromRows([][]float64{{-1, 0.5}})
	k := Kron(a, b)
	if !Equal(Abs(k), Materialize(k).Abs(), 1e-12) {
		t.Fatal("kron abs mismatch")
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := Prefix(4)
	if T(T(m)) != Matrix(m) {
		t.Fatal("double transpose did not unwrap")
	}
	checkAgainstDense(t, T(m), 3)
}

func TestScaledAndDiag(t *testing.T) {
	checkAgainstDense(t, Scaled(-2.5, Prefix(4)), 3)
	checkAgainstDense(t, Diag([]float64{1, -2, 0, 3}), 3)
	if !Equal(Abs(Scaled(-2, Identity(3))), Scaled(2, Identity(3)), 0) {
		t.Fatal("scaled abs mismatch")
	}
}

func TestRowScaled(t *testing.T) {
	m := RowScaled([]float64{2, 0, -1}, Ones(3, 2))
	d := Materialize(m)
	want := DenseFromRows([][]float64{{2, 2}, {0, 0}, {-1, -1}})
	if !Equal(d, want, 0) {
		t.Fatalf("rowscaled = %v", d)
	}
	checkAgainstDense(t, m, 3)
	if !Equal(Abs(m), Materialize(m).Abs(), 1e-12) {
		t.Fatal("rowscaled abs mismatch")
	}
}

func TestL1SensitivityKnownCases(t *testing.T) {
	cases := []struct {
		name string
		m    Matrix
		want float64
	}{
		{"identity", Identity(8), 1},
		{"total", Total(8), 1},
		{"prefix", Prefix(8), 8}, // first column appears in every prefix
		{"identity+total", VStack(Identity(8), Total(8)), 2},
		{"ones3x4", Ones(3, 4), 3},
		{"scaled", Scaled(-3, Identity(4)), 3},
	}
	for _, c := range cases {
		if got := L1Sensitivity(c.m); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("L1Sensitivity(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSensitivityMatchesBruteForce(t *testing.T) {
	rng := testRand()
	for trial := 0; trial < 8; trial++ {
		r, c := 1+rng.IntN(6), 1+rng.IntN(6)
		d := NewDense(r, c, nil)
		for i := range d.Data() {
			d.Data()[i] = rng.Float64()*4 - 2
		}
		// Brute-force column norms.
		var wantL1 float64
		for j := 0; j < c; j++ {
			var s1 float64
			for i := 0; i < r; i++ {
				s1 += math.Abs(d.At(i, j))
			}
			if s1 > wantL1 {
				wantL1 = s1
			}
		}
		if got := L1Sensitivity(d); math.Abs(got-wantL1) > 1e-9 {
			t.Fatalf("L1 = %v, want %v", got, wantL1)
		}
	}
}

func TestRowIndexing(t *testing.T) {
	m := Prefix(5)
	row2 := Row(m, 2)
	want := []float64{1, 1, 1, 0, 0}
	if !vec.AllClose(row2, want, 0, 0) {
		t.Fatalf("Row(prefix, 2) = %v", row2)
	}
}

func TestGram(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	g := Gram(m)
	want := DenseFromRows([][]float64{{10, 14}, {14, 20}})
	if !Equal(g, want, 1e-12) {
		t.Fatalf("gram = %v", g)
	}
}

// TestAdjointProperty checks ⟨Mx, y⟩ = ⟨x, Mᵀy⟩ for every constructor,
// the defining property tying MatVec and TMatVec together.
func TestAdjointProperty(t *testing.T) {
	rng := testRand()
	mats := map[string]Matrix{
		"identity": Identity(6),
		"ones":     Ones(4, 6),
		"prefix":   Prefix(6),
		"suffix":   Suffix(6),
		"wavelet":  Wavelet(8),
		"vstack":   VStack(Identity(6), Prefix(6)),
		"product":  Product(Ones(3, 6), Prefix(6)),
		"kron":     Kron(Prefix(2), Identity(3)),
		"diag":     Diag([]float64{1, 2, 3, 4, 5, 6}),
		"sparse":   NewSparse(3, 6, []Triplet{{0, 0, 1}, {1, 3, -2}, {2, 5, 4}}),
	}
	for name, m := range mats {
		r, c := m.Dims()
		for k := 0; k < 5; k++ {
			x := randVec(rng, c)
			y := randVec(rng, r)
			lhs := vec.Dot(Mul(m, x), y)
			rhs := vec.Dot(x, TMul(m, y))
			if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
				t.Errorf("%s: adjoint violated: %v vs %v", name, lhs, rhs)
			}
		}
	}
}

// TestPrefixLinearityQuick property-tests prefix linearity with
// testing/quick: Prefix(ax+by) = a·Prefix(x) + b·Prefix(y).
func TestPrefixLinearityQuick(t *testing.T) {
	m := Prefix(16)
	f := func(seed uint64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		rng := rand.New(rand.NewPCG(seed, 1))
		x := randVec(rng, 16)
		y := randVec(rng, 16)
		z := make([]float64, 16)
		for i := range z {
			z[i] = a*x[i] + b*y[i]
		}
		got := Mul(m, z)
		px, py := Mul(m, x), Mul(m, y)
		for i := range got {
			want := a*px[i] + b*py[i]
			if math.Abs(got[i]-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestKroneckerMixedProperty property-tests (A⊗B)(x⊗y) = (Ax)⊗(By).
func TestKroneckerMixedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		a := Prefix(3)
		b := Identity(4)
		x := randVec(rng, 3)
		y := randVec(rng, 4)
		xy := make([]float64, 12)
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				xy[i*4+j] = x[i] * y[j]
			}
		}
		got := Mul(Kron(a, b), xy)
		ax, by := Mul(a, x), Mul(b, y)
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				want := ax[i] * by[j]
				if math.Abs(got[i*4+j]-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	m := VStack(Identity(3), Total(3))
	d := Materialize(m)
	s, _ := ToSparse(d, 0)
	if !Equal(m, s, 0) {
		t.Fatal("materialize/sparse round trip failed")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	m := Identity(3)
	for _, fn := range []func(){
		func() { m.MatVec(make([]float64, 3), make([]float64, 4)) },
		func() { m.TMatVec(make([]float64, 2), make([]float64, 3)) },
		func() { Product(Identity(3), Identity(4)) },
		func() { Row(m, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on dimension mismatch")
				}
			}()
			fn()
		}()
	}
}
