package partition

import (
	"math/rand/v2"
	"testing"

	"repro/internal/mat"
)

func TestDawaL1ExactUniform(t *testing.T) {
	noisy := make([]float64, 64)
	for i := range noisy {
		noisy[i] = 7
	}
	p := DawaL1PartitionExact(noisy, 1.0, 64)
	if p.K != 1 {
		t.Fatalf("uniform data exact-L1 buckets = %d, want 1", p.K)
	}
}

func TestDawaL1ExactStep(t *testing.T) {
	noisy := make([]float64, 32)
	for i := 16; i < 32; i++ {
		noisy[i] = 1000
	}
	p := DawaL1PartitionExact(noisy, 1.0, 32)
	if p.Groups[15] == p.Groups[16] {
		t.Fatalf("exact-L1 merged across the step: %v", p.Groups)
	}
}

// TestDawaCostAblation verifies the substitution claim of DESIGN.md §5:
// on the benchmark-style distributions the L2-cost bucketing selects a
// partition whose downstream uniformity error is close to the exact
// L1-cost bucketing's.
func TestDawaCostAblation(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 73))
	n := 128
	x := make([]float64, n)
	// Piecewise-constant with noise: the regime DAWA targets.
	level := 10.0
	for i := range x {
		if i%32 == 0 {
			level = float64(rng.IntN(100))
		}
		x[i] = level + rng.Float64()*2
	}
	l2p := DawaL1Partition(x, 1.0, 64)
	l1p := DawaL1PartitionExact(x, 1.0, 64)
	devL2 := uniformityError(x, l2p)
	devL1 := uniformityError(x, l1p)
	// Allow the approximation a 2x slack on within-bucket deviation.
	if devL2 > 2*devL1+1e-9 {
		t.Fatalf("L2-cost bucketing much worse than exact L1: %v vs %v (K=%d vs %d)",
			devL2, devL1, l2p.K, l1p.K)
	}
}

// uniformityError is the squared error of approximating x by its
// bucket-uniform expansion P⁺x′.
func uniformityError(x []float64, p Partition) float64 {
	reduced := make([]float64, p.K)
	for i, g := range p.Groups {
		reduced[g] += x[i]
	}
	expanded := mat.Mul(p.PInverse(), reduced)
	var s float64
	for i := range x {
		d := x[i] - expanded[i]
		s += d * d
	}
	return s
}

func BenchmarkDawaL2Partition(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(rng.IntN(50))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DawaL1Partition(x, 1.0, 256)
	}
}

func BenchmarkDawaL1ExactPartition(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(rng.IntN(50))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DawaL1PartitionExact(x, 1.0, 64)
	}
}
