package selection

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/noise"
	"repro/internal/vec"
)

// correlatedVector builds a contingency vector over shape [3,3,2] where
// attributes 0 and 1 are perfectly correlated and 2 is independent.
func correlatedVector() ([]float64, []int) {
	shape := []int{3, 3, 2}
	x := make([]float64, 18)
	for a := 0; a < 3; a++ {
		for c := 0; c < 2; c++ {
			x[a*6+a*2+c] = 100 // (a, b=a, c)
		}
	}
	return x, shape
}

func TestMutualInformationOrdering(t *testing.T) {
	x, shape := correlatedVector()
	miCorrelated := mutualInformation(x, shape, 0, 1, nil)
	miIndependent := mutualInformation(x, shape, 0, 2, nil)
	if miCorrelated <= miIndependent {
		t.Fatalf("MI(0,1)=%v should exceed MI(0,2)=%v", miCorrelated, miIndependent)
	}
	if miCorrelated < math.Log(3)-0.01 {
		t.Fatalf("perfect correlation MI = %v, want ≈ln(3)", miCorrelated)
	}
	if miIndependent > 0.01 {
		t.Fatalf("independent MI = %v, want ≈0", miIndependent)
	}
}

func TestMutualInformationEmptyVector(t *testing.T) {
	if mi := mutualInformation(make([]float64, 18), []int{3, 3, 2}, 0, 1, nil); mi != 0 {
		t.Fatalf("empty-data MI = %v", mi)
	}
}

func TestMISensitivityDecreasing(t *testing.T) {
	// Sensitivity shrinks with the record count and is positive.
	s100 := MISensitivity(100)
	s10000 := MISensitivity(10000)
	if s100 <= 0 || s10000 <= 0 || s10000 >= s100 {
		t.Fatalf("sensitivities: n=100 %v, n=10000 %v", s100, s10000)
	}
	// Tiny n clamps rather than exploding.
	if math.IsInf(MISensitivity(0), 0) || math.IsNaN(MISensitivity(0)) {
		t.Fatal("MISensitivity(0) not finite")
	}
}

func TestPrivBayesSelectStructure(t *testing.T) {
	x, shape := correlatedVector()
	_, h := kernel.InitVector(x, 1e9, noise.NewRand(5))
	m, net, err := PrivBayesSelect(h, shape, 1e8, 600)
	if err != nil {
		t.Fatal(err)
	}
	// At huge ε the net must link the correlated pair 0-1 (in either
	// direction) rather than through the independent attribute 2 alone.
	pair := (net.Parent[0] == 1) || (net.Parent[1] == 0)
	if !pair {
		t.Fatalf("net missed the correlated pair: parents=%v order=%v", net.Parent, net.Order)
	}
	// The measurement matrix covers the full domain and is a union of
	// marginals: every column sum of a marginal block is 1, so the
	// sensitivity equals the number of blocks (root + d-1 children).
	_, c := m.Dims()
	if c != 18 {
		t.Fatalf("measurement cols = %d", c)
	}
	if got := mat.L1Sensitivity(m); got != 3 {
		t.Fatalf("sufficient-statistics sensitivity = %v, want 3", got)
	}
}

func TestPrivBayesSelectBudget(t *testing.T) {
	x, shape := correlatedVector()
	k, h := kernel.InitVector(x, 1.0, noise.NewRand(7))
	if _, _, err := PrivBayesSelect(h, shape, 0.5, 600); err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.Consumed()-0.5) > 1e-9 {
		t.Fatalf("structure selection consumed %v, want 0.5", k.Consumed())
	}
	// Exceeding the remaining budget must fail cleanly.
	if _, _, err := PrivBayesSelect(h, shape, 0.8, 600); err == nil {
		t.Fatal("over-budget selection succeeded")
	}
}

func TestPrivBayesSelectSingleAttribute(t *testing.T) {
	x := []float64{5, 10, 15}
	_, h := kernel.InitVector(x, 10, noise.NewRand(9))
	m, net, err := PrivBayesSelect(h, []int{3}, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Order) != 1 || net.Parent[0] != -1 {
		t.Fatalf("1-attribute net = %+v", net)
	}
	r, c := m.Dims()
	if r != 3 || c != 3 {
		t.Fatalf("1-attribute measurement = %dx%d", r, c)
	}
}

func TestColSubsetTranspose(t *testing.T) {
	m := ColSubset(mat.Prefix(8), 5)
	// Adjoint property ties MatVec and TMatVec together.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, -1, 2, -2, 3, -3, 4, -4}
	lhs := vec.Dot(mat.Mul(m, x), y)
	rhs := vec.Dot(x, mat.TMul(m, y))
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint violated: %v vs %v", lhs, rhs)
	}
	// Abs distributes through the column subset.
	if !mat.Equal(mat.Abs(m), mat.Materialize(m).Abs(), 1e-12) {
		t.Fatal("ColSubset abs mismatch")
	}
}

func TestColSubsetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ColSubset(mat.Identity(4), 9)
}
