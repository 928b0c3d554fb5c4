package inference

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/mat"
)

// canon returns m as the explicit CSR matrix a measurement log holds.
func canon(m mat.Matrix) *mat.Sparse {
	ts, ok := mat.Triplets(m, 0)
	if !ok {
		panic("no structural form")
	}
	r, c := m.Dims()
	return mat.NewSparse(r, c, ts)
}

func randPanel(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.NormFloat64() * 100
	}
	return p
}

// TestConsolidatedDistinctBlocksAreTheStack: a log without a repeated
// strategy consolidates to exactly the stacked system — same blocks in
// the same order, the blocks' own weights and panels bit for bit.
func TestConsolidatedDistinctBlocksAreTheStack(t *testing.T) {
	const n, k = 16, 3
	rng := rand.New(rand.NewPCG(1, 2))
	ms := []mat.Matrix{canon(mat.Identity(n)), canon(mat.Prefix(n)), canon(mat.Total(n))}
	c := NewConsolidated(n, k)
	var wantY, wantW []float64
	for i, m := range ms {
		rows, _ := m.Dims()
		y := randPanel(rng, rows*k)
		w := 1 / (0.3 + float64(i))
		wantY = append(wantY, y...)
		for r := 0; r < rows; r++ {
			wantW = append(wantW, w)
		}
		c.Fold(m, Digest(m), w, append([]float64(nil), y...))
	}
	a, y, w := c.System()
	if c.Groups() != len(ms) {
		t.Fatalf("%d groups for %d distinct strategies", c.Groups(), len(ms))
	}
	if _, ok := a.(*mat.VStackMat); !ok || !mat.Equal(a, mat.VStack(ms...), 0) {
		t.Fatalf("system matrix is %T, want the stack of the %d blocks", a, len(ms))
	}
	if !sameFloats(y, wantY) || !sameFloats(w, wantW) {
		t.Fatal("a log of distinct strategies is not the stacked system bit for bit")
	}
}

// TestConsolidatedRepeatsFoldToWeightedMean: blocks repeating a
// strategy share one group whose weight is √Σwᵢ² and whose panel is
// the wᵢ²-weighted mean, whatever form the repeat arrives in; the
// consolidated normal equations equal the stacked ones.
func TestConsolidatedRepeatsFoldToWeightedMean(t *testing.T) {
	const n, k = 8, 2
	rng := rand.New(rand.NewPCG(3, 4))
	h := canon(mat.Prefix(n))
	id := canon(mat.Identity(n))
	type block struct {
		m mat.Matrix
		w float64
		y []float64
	}
	var log []block
	for i := 0; i < 7; i++ {
		m := mat.Matrix(h)
		if i%3 == 1 {
			m = id
		}
		if i == 4 {
			m = canon(mat.Prefix(n)) // equal entries, different object
		}
		rows, _ := m.Dims()
		log = append(log, block{m, 0.5 + rng.Float64(), randPanel(rng, rows*k)})
	}
	c := NewConsolidated(n, k)
	for _, b := range log {
		c.Fold(b.m, Digest(b.m), b.w, append([]float64(nil), b.y...))
	}
	if c.Groups() != 2 {
		t.Fatalf("%d groups, want 2", c.Groups())
	}
	// Aᵀ·diag(w²)·y of the consolidated system against the stacked log's.
	a, y, w := c.System()
	rows, _ := a.Dims()
	wy := make([]float64, rows*k)
	for i := range w {
		for j := 0; j < k; j++ {
			wy[i*k+j] = w[i] * w[i] * y[i*k+j]
		}
	}
	got := make([]float64, n*k)
	mat.TMatMat(a, got, wy, k)
	want := make([]float64, n*k)
	for _, b := range log {
		mat.AddScaledTMatMat(want, b.m, b.y, k, b.w*b.w)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("Aᵀw²y[%d] = %v, stacked log gives %v", i, got[i], want[i])
		}
	}
	// Σw² per group.
	var h2, id2 float64
	for _, b := range log {
		if b.m == mat.Matrix(id) {
			id2 += b.w * b.w
		} else {
			h2 += b.w * b.w
		}
	}
	if math.Abs(w[0]*w[0]-h2) > 1e-12 || math.Abs(w[n]*w[n]-id2) > 1e-12 {
		t.Fatalf("group weights² %v, %v; want %v, %v", w[0]*w[0], w[n]*w[n], h2, id2)
	}
}

// TestConsolidatedDigestCollisionOpensNewGroup: a digest match is only
// a candidate; unequal matrices never share a group.
func TestConsolidatedDigestCollisionOpensNewGroup(t *testing.T) {
	const n = 4
	a := canon(mat.Identity(n))
	b := canon(mat.Prefix(n))
	c := NewConsolidated(n, 1)
	c.Fold(a, 7, 1, make([]float64, n))
	c.Fold(b, 7, 1, make([]float64, n))
	c.Fold(mat.Identity(n), 0, 1, make([]float64, n)) // implicit: never grouped
	c.Fold(mat.Identity(n), 0, 1, make([]float64, n))
	if c.Groups() != 4 {
		t.Fatalf("%d groups, want 4", c.Groups())
	}
	if Digest(a) == Digest(b) || Digest(a) != Digest(canon(mat.Identity(n))) {
		t.Fatal("digest does not follow matrix content")
	}
	d := mat.NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		d.Set(i, i, 1)
	}
	if sameMatrix(a, d) || !sameMatrix(d, mat.NewDense(n, n, append([]float64(nil), d.Data()...))) {
		t.Fatal("sameMatrix must compare like forms entry for entry")
	}
}
