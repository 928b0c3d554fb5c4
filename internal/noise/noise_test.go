package noise

import (
	"math"
	"testing"
)

func TestLaplaceMoments(t *testing.T) {
	rng := NewRand(42)
	const n = 200000
	b := 2.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := Laplace(rng, b)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	// Var(Laplace(b)) = 2b² = 8.
	if math.Abs(variance-8) > 0.4 {
		t.Errorf("Laplace variance = %v, want ~8", variance)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	rng := NewRand(1)
	if Laplace(rng, 0) != 0 {
		t.Fatal("Laplace(0) != 0")
	}
}

func TestLaplaceNegativeScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Laplace(NewRand(1), -1)
}

func TestLaplaceVec(t *testing.T) {
	rng := NewRand(3)
	dst := make([]float64, 1000)
	LaplaceVec(rng, dst, 1)
	var nonZero int
	for _, v := range dst {
		if v != 0 {
			nonZero++
		}
	}
	if nonZero < 990 {
		t.Fatalf("LaplaceVec produced %d nonzero of 1000", nonZero)
	}
}

func TestLaplaceDeterministicWithSeed(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 10; i++ {
		if Laplace(a, 1) != Laplace(b, 1) {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestExponentialPrefersHighScores(t *testing.T) {
	rng := NewRand(11)
	scores := []float64{0, 0, 10, 0}
	counts := make([]int, 4)
	for i := 0; i < 2000; i++ {
		counts[Exponential(rng, scores, 2, 1)]++
	}
	if counts[2] < 1800 {
		t.Errorf("high-score index selected only %d/2000 times", counts[2])
	}
}

func TestExponentialUniformWhenEqual(t *testing.T) {
	rng := NewRand(13)
	scores := []float64{5, 5, 5, 5}
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[Exponential(rng, scores, 1, 1)]++
	}
	for i, c := range counts {
		if c < 1600 || c > 2400 {
			t.Errorf("index %d selected %d/8000, want ~2000", i, c)
		}
	}
}

func TestExponentialStableWithHugeScores(t *testing.T) {
	rng := NewRand(17)
	// Without max-subtraction these would overflow exp().
	scores := []float64{1e6, 1e6 + 1}
	for i := 0; i < 100; i++ {
		idx := Exponential(rng, scores, 1, 1)
		if idx < 0 || idx > 1 {
			t.Fatal("index out of range")
		}
	}
}

func TestExponentialEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Exponential(NewRand(1), nil, 1, 1)
}
