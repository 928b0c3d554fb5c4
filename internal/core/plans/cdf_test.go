package plans

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/solver"
	"repro/internal/vec"
)

func TestCDFEstimatorNearExact(t *testing.T) {
	n := 128
	x := testData(n, 31)
	_, h := newVecKernel(x, 1e8, 33)
	cdf, err := CDFGraph(1e7, CDFConfig{}).Execute(h)
	if err != nil {
		t.Fatal(err)
	}
	truth := mat.Mul(mat.Prefix(n), x)
	// At huge ε the AHP groups are data-exact; the CDF should track the
	// truth closely at every point.
	for i := range cdf {
		if math.Abs(cdf[i]-truth[i]) > 0.05*vec.Sum(x)+1 {
			t.Fatalf("CDF[%d] = %v, want ≈%v", i, cdf[i], truth[i])
		}
	}
	// CDF endpoints: last value ≈ total.
	if math.Abs(cdf[n-1]-vec.Sum(x)) > 1 {
		t.Fatalf("CDF total = %v, want %v", cdf[n-1], vec.Sum(x))
	}
}

func TestCDFEstimatorMonotoneNonDecreasing(t *testing.T) {
	// NNLS guarantees non-negative histogram estimates, so the CDF must
	// be non-decreasing even under real noise.
	n := 64
	x := testData(n, 32)
	_, h := newVecKernel(x, 1.0, 35)
	cdf, err := CDFGraph(1.0, CDFConfig{Solver: solver.Options{MaxIter: 800}}).Execute(h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if cdf[i] < cdf[i-1]-1e-6 {
			t.Fatalf("CDF decreases at %d: %v -> %v", i, cdf[i-1], cdf[i])
		}
	}
}

func TestCDFEstimatorBudget(t *testing.T) {
	x := testData(32, 33)
	k, h := newVecKernel(x, 1.0, 37)
	if _, err := CDFGraph(1.0, CDFConfig{}).Execute(h); err != nil {
		t.Fatal(err)
	}
	if k.Consumed() > 1.0+1e-9 {
		t.Fatalf("CDF estimator overspent: %v", k.Consumed())
	}
	if _, err := CDFGraph(0.5, CDFConfig{}).Execute(h); err == nil {
		t.Fatal("second run should exhaust the budget")
	}
}
