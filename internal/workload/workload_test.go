package workload

import (
	"math/rand/v2"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/vec"
)

func TestRandomRangeBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	w := RandomRange(50, 20, rng)
	r, c := w.Dims()
	if r != 20 || c != 50 {
		t.Fatalf("dims = %dx%d", r, c)
	}
	for _, rg := range w.Ranges1D() {
		if rg.Lo < 0 || rg.Hi >= 50 || rg.Lo > rg.Hi {
			t.Fatalf("bad range %v", rg)
		}
	}
}

func TestRandomSmallRangeWidth(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	w := RandomSmallRange(100, 30, 8, rng)
	for _, rg := range w.Ranges1D() {
		if rg.Size() > 8 {
			t.Fatalf("range %v wider than 8", rg)
		}
	}
}

func TestMarginalSumsOut(t *testing.T) {
	schema := dataset.Schema{{Name: "a", Size: 2}, {Name: "b", Size: 3}}
	w := Marginal(schema, "a")
	r, c := w.Dims()
	if r != 2 || c != 6 {
		t.Fatalf("marginal dims = %dx%d", r, c)
	}
	x := []float64{1, 2, 3, 4, 5, 6}
	got := mat.Mul(w, x)
	want := []float64{6, 15}
	if !vec.AllClose(got, want, 1e-12, 1e-12) {
		t.Fatalf("marginal = %v, want %v", got, want)
	}
}

func TestAllTwoWayMarginals(t *testing.T) {
	schema := dataset.Schema{{Name: "a", Size: 2}, {Name: "b", Size: 2}, {Name: "c", Size: 2}}
	w := AllKWayMarginals(schema, 2)
	r, c := w.Dims()
	// 3 pairs × 4 cells each = 12 rows over an 8-cell domain.
	if r != 12 || c != 8 {
		t.Fatalf("2-way marginals dims = %dx%d", r, c)
	}
	// Every row must sum a disjoint slice covering the whole domain per
	// marginal: each marginal's 4 answers sum to the total.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got := mat.Mul(w, x)
	for m := 0; m < 3; m++ {
		var s float64
		for i := 0; i < 4; i++ {
			s += got[m*4+i]
		}
		if s != 36 {
			t.Fatalf("marginal %d mass = %v, want 36", m, s)
		}
	}
}

func TestMarginalPaperExample(t *testing.T) {
	// Paper Example 7.5: W13 = I ⊗ Total ⊗ I over a 3-attribute schema.
	schema := dataset.Schema{{Name: "x1", Size: 2}, {Name: "x2", Size: 3}, {Name: "x3", Size: 2}}
	w := Marginal(schema, "x1", "x3")
	want := mat.Kron(mat.Identity(2), mat.Total(3), mat.Identity(2))
	if !mat.Equal(w, want, 1e-12) {
		t.Fatal("W13 != I⊗Total⊗I")
	}
}

func TestCensusPrefixIncomeShape(t *testing.T) {
	// Mini-census schema to keep the materialization small.
	schema := dataset.Schema{
		{Name: "income", Size: 4},
		{Name: "age", Size: 2},
		{Name: "gender", Size: 2},
	}
	w := CensusPrefixIncome(schema)
	r, c := w.Dims()
	if c != 16 {
		t.Fatalf("cols = %d", c)
	}
	// rows = 4 (prefix) × (2+1) × (2+1) = 36.
	if r != 36 {
		t.Fatalf("rows = %d, want 36", r)
	}
	// Every query must be a 0/1 counting query: abs(W) == W.
	if !mat.Equal(w, mat.Abs(w), 1e-12) {
		t.Fatal("census workload is not 0/1")
	}
}

func TestCensusPrefixIncomeSemantics(t *testing.T) {
	schema := dataset.Schema{
		{Name: "income", Size: 3},
		{Name: "age", Size: 2},
	}
	w := CensusPrefixIncome(schema)
	// Domain 6: x indexed by (income, age).
	x := []float64{1, 2, 3, 4, 5, 6}
	got := mat.Mul(w, x)
	// Rows enumerate (incomePrefix i, age factor row). Age factor =
	// VStack(Identity(2), Total(2)): rows age=0, age=1, age=any.
	// First row: income ≤ 0, age = 0 → x[0] = 1.
	if got[0] != 1 {
		t.Fatalf("q0 = %v, want 1", got[0])
	}
	// Row (i=2, any): whole domain = 21. Kron row ordering: income-major.
	last := got[len(got)-1]
	if last != 21 {
		t.Fatalf("last = %v, want 21", last)
	}
}

func TestIdentityWrapper(t *testing.T) {
	if r, c := Identity(5).Dims(); r != 5 || c != 5 {
		t.Fatal("Identity wrapper wrong")
	}
}

func TestRandomRange2D(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	w := RandomRange2D(8, 8, 10, rng)
	r, c := w.Dims()
	if r != 10 || c != 64 {
		t.Fatalf("dims = %dx%d", r, c)
	}
}
