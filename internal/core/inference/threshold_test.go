package inference

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/solver"
)

func TestThreshold(t *testing.T) {
	x := []float64{0.5, -0.4, 3, -3, 0}
	Threshold(x, 1)
	want := []float64{0, 0, 3, -3, 0}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("threshold = %v", x)
		}
	}
}

func TestNoiseAwareThreshold(t *testing.T) {
	x := []float64{1, 10}
	NoiseAwareThreshold(x, 1, 2) // cutoff 2*sqrt(2) ≈ 2.83
	if x[0] != 0 || x[1] != 10 {
		t.Fatalf("noise-aware threshold = %v", x)
	}
}

func TestThresholdedLeastSquares(t *testing.T) {
	// Sparse truth with noise scale 1: tiny noisy estimates on the empty
	// cells should be suppressed.
	ms := NewMeasurements(6)
	noisy := []float64{0.3, -0.8, 50, 0.2, -0.1, 40}
	ms.Add(mat.Identity(6), noisy, 1)
	got := NoiseAwareThreshold(ms.LeastSquares(solver.Options{MaxIter: 500, Tol: 1e-9}), 1, 1.5)
	for i, v := range got {
		switch i {
		case 2, 5:
			if v < 30 {
				t.Fatalf("real mass suppressed at %d: %v", i, v)
			}
		default:
			if v != 0 {
				t.Fatalf("noise survived at %d: %v", i, v)
			}
		}
	}
}

func TestThresholdKeepsMagnitudeAboveCutoff(t *testing.T) {
	x := []float64{math.Nextafter(1, 2)}
	Threshold(x, 1)
	if x[0] == 0 {
		t.Fatal("value above cutoff zeroed")
	}
}
