package partition

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/vec"
)

func TestFromGroupsRenumbers(t *testing.T) {
	p := FromGroups([]int{5, 5, 2, 9, 2})
	if p.K != 3 {
		t.Fatalf("K = %d", p.K)
	}
	want := []int{0, 0, 1, 2, 1}
	for i := range want {
		if p.Groups[i] != want[i] {
			t.Fatalf("groups = %v", p.Groups)
		}
	}
}

func TestPartitionMatrixReduces(t *testing.T) {
	p := FromGroups([]int{0, 0, 1, 1, 1})
	x := []float64{1, 2, 3, 4, 5}
	reduced := mat.Mul(p.Matrix(), x)
	if reduced[0] != 3 || reduced[1] != 12 {
		t.Fatalf("reduced = %v", reduced)
	}
}

func TestPInversePropertiesPaper(t *testing.T) {
	// Prop. 8.3: P·P⁺ = I (on the reduced domain).
	p := FromGroups([]int{0, 1, 0, 2, 1, 0})
	prod := mat.Product(p.Matrix(), p.PInverse())
	if !mat.Equal(prod, mat.Identity(3), 1e-12) {
		t.Fatalf("P·P⁺ != I:\n%v", mat.Materialize(prod))
	}
}

func TestExpandUniformSpreading(t *testing.T) {
	p := FromGroups([]int{0, 0, 1, 1})
	x := mat.Mul(p.PInverse(), []float64{6, 10})
	want := []float64{3, 3, 5, 5}
	if !vec.AllClose(x, want, 0, 0) {
		t.Fatalf("expand = %v", x)
	}
}

func TestLosslessReduction(t *testing.T) {
	// Paper Prop. 8.3: Wx = W'x' when W does not distinguish grouped
	// cells. Use a workload constant on each group.
	p := FromGroups([]int{0, 0, 1, 1})
	w := mat.DenseFromRows([][]float64{
		{1, 1, 0, 0},
		{2, 2, 3, 3},
	})
	x := []float64{1, 2, 3, 4}
	wx := mat.Mul(w, x)
	wReduced := p.ReduceWorkload(w)
	xReduced := mat.Mul(p.Matrix(), x)
	wxReduced := mat.Mul(wReduced, xReduced)
	if !vec.AllClose(wx, wxReduced, 1e-12, 1e-12) {
		t.Fatalf("Wx = %v but W'x' = %v", wx, wxReduced)
	}
}

func TestStripePartition(t *testing.T) {
	// Shape 2x3: striping dim 1 gives one group per value of dim 0.
	p := Stripe([]int{2, 3}, 1)
	if p.K != 2 {
		t.Fatalf("K = %d", p.K)
	}
	// Row-major: cells 0,1,2 are dim0=0; cells 3,4,5 are dim0=1.
	for i := 0; i < 3; i++ {
		if p.Groups[i] != p.Groups[0] {
			t.Fatalf("groups = %v", p.Groups)
		}
	}
	if p.Groups[0] == p.Groups[3] {
		t.Fatalf("stripes not disjoint: %v", p.Groups)
	}
}

func TestStripePartition3D(t *testing.T) {
	shape := []int{2, 3, 4}
	p := Stripe(shape, 1) // stripe along the middle dim
	if p.K != 8 {
		t.Fatalf("K = %d, want 2*4", p.K)
	}
	sizes := p.GroupSizes()
	for _, s := range sizes {
		if s != 3 {
			t.Fatalf("stripe sizes = %v, want all 3", sizes)
		}
	}
}

func TestMarginalPartition(t *testing.T) {
	shape := []int{2, 3}
	p := Marginal(shape, 1)
	if p.K != 3 {
		t.Fatalf("K = %d", p.K)
	}
	x := []float64{1, 2, 3, 4, 5, 6} // rows (dim0) x cols (dim1)
	marg := mat.Mul(p.Matrix(), x)
	want := []float64{1 + 4, 2 + 5, 3 + 6}
	if !vec.AllClose(marg, want, 0, 0) {
		t.Fatalf("marginal = %v, want %v", marg, want)
	}
}

func TestGridPartition(t *testing.T) {
	p := Grid(4, 4, 2, 2)
	if p.K != 4 {
		t.Fatalf("K = %d", p.K)
	}
	sizes := p.GroupSizes()
	for _, s := range sizes {
		if s != 4 {
			t.Fatalf("grid sizes = %v", sizes)
		}
	}
	// Ragged grid.
	p2 := Grid(5, 5, 2, 2)
	if p2.K != 9 {
		t.Fatalf("ragged K = %d, want 9", p2.K)
	}
}

func TestWorkloadBasedPrefixNoReduction(t *testing.T) {
	// Prefix distinguishes every cell: no reduction possible.
	rng := rand.New(rand.NewPCG(1, 2))
	p := WorkloadBased(mat.Prefix(16), rng, 1)
	if p.K != 16 {
		t.Fatalf("prefix reduction K = %d, want 16", p.K)
	}
}

func TestWorkloadBasedTotalFullReduction(t *testing.T) {
	// Total treats all cells identically: reduce to one group.
	rng := rand.New(rand.NewPCG(3, 4))
	p := WorkloadBased(mat.Total(32), rng, 1)
	if p.K != 1 {
		t.Fatalf("total reduction K = %d, want 1", p.K)
	}
}

func TestWorkloadBasedPaperExample(t *testing.T) {
	// Paper Example 8.1: two disjoint queries over a domain => cells used
	// by q1 group together, cells used by q2 group together, rest group.
	rng := rand.New(rand.NewPCG(5, 6))
	w := mat.RangeQueries(10, []mat.Range1D{{Lo: 0, Hi: 4}, {Lo: 5, Hi: 7}})
	p := WorkloadBased(w, rng, 2)
	if p.K != 3 {
		t.Fatalf("K = %d, want 3 (q1-cells, q2-cells, untouched)", p.K)
	}
	for i := 1; i <= 4; i++ {
		if p.Groups[i] != p.Groups[0] {
			t.Fatalf("q1 cells split: %v", p.Groups)
		}
	}
	if p.Groups[5] == p.Groups[0] || p.Groups[8] == p.Groups[5] {
		t.Fatalf("grouping wrong: %v", p.Groups)
	}
}

// TestWorkloadBasedLosslessQuick is the paper's Prop. 8.3 as a property
// test: for random range workloads and random data, Wx = W'x'.
func TestWorkloadBasedLosslessQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		n := 8 + rng.IntN(12)
		var ranges []mat.Range1D
		for q := 0; q < 1+rng.IntN(4); q++ {
			a, b := rng.IntN(n), rng.IntN(n)
			if a > b {
				a, b = b, a
			}
			ranges = append(ranges, mat.Range1D{Lo: a, Hi: b})
		}
		w := mat.RangeQueries(n, ranges)
		p := WorkloadBased(w, rng, 1)
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.IntN(50))
		}
		lhs := mat.Mul(w, x)
		rhs := mat.Mul(p.ReduceWorkload(w), mat.Mul(p.Matrix(), x))
		return vec.AllClose(lhs, rhs, 1e-8, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAHPClusterGroupsUniformRegions(t *testing.T) {
	// Two clearly separated levels with tiny noise must form few groups.
	noisy := make([]float64, 64)
	for i := range noisy {
		if i < 32 {
			noisy[i] = 5
		} else {
			noisy[i] = 500
		}
	}
	p := AHPCluster(noisy, 0.35, 1.0)
	if p.K > 4 {
		t.Fatalf("AHP produced %d clusters for 2-level data", p.K)
	}
	// The two levels must not share a cluster.
	if p.Groups[0] == p.Groups[63] {
		t.Fatal("AHP merged far-apart levels")
	}
}

func TestAHPClusterThresholdZeroes(t *testing.T) {
	// All counts below the threshold collapse into one cluster.
	noisy := []float64{0.1, 0.2, 0.05, 0.15}
	p := AHPCluster(noisy, 10, 0.1) // enormous threshold
	if p.K != 1 {
		t.Fatalf("K = %d, want 1", p.K)
	}
}

func TestDawaPartitionUniformData(t *testing.T) {
	// Perfectly uniform data: deviation is zero everywhere, so the DP
	// should prefer few large buckets (fewer noise penalties).
	noisy := make([]float64, 128)
	for i := range noisy {
		noisy[i] = 10
	}
	p := DawaL1Partition(noisy, 1.0, 0)
	if p.K != 1 {
		t.Fatalf("uniform data buckets = %d, want 1", p.K)
	}
}

func TestDawaPartitionRespectsStructure(t *testing.T) {
	// Step function: bucket boundary should land at the step.
	noisy := make([]float64, 64)
	for i := range noisy {
		if i >= 32 {
			noisy[i] = 1000
		}
	}
	p := DawaL1Partition(noisy, 1.0, 0)
	if p.Groups[31] == p.Groups[32] {
		t.Fatalf("DAWA merged across the step: %v", p.Groups)
	}
	if p.K > 4 {
		t.Fatalf("DAWA over-fragmented: K = %d", p.K)
	}
}

func TestDawaPartitionContiguous(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	noisy := make([]float64, 100)
	for i := range noisy {
		noisy[i] = rng.Float64() * 100
	}
	p := DawaL1Partition(noisy, 0.5, 16)
	// Groups must be contiguous and ascending.
	for i := 1; i < len(p.Groups); i++ {
		if p.Groups[i] != p.Groups[i-1] && p.Groups[i] != p.Groups[i-1]+1 {
			t.Fatalf("non-contiguous groups at %d: %v", i, p.Groups[i-3:i+1])
		}
	}
	// Max bucket respected.
	sizes := p.GroupSizes()
	for _, s := range sizes {
		if s > 16 {
			t.Fatalf("bucket size %d exceeds cap", s)
		}
	}
}

func TestDawaNoiseCostTradeoff(t *testing.T) {
	// With a tiny stage-2 budget (huge noise cost), buckets get larger.
	rng := rand.New(rand.NewPCG(17, 19))
	noisy := make([]float64, 64)
	for i := range noisy {
		noisy[i] = float64(rng.IntN(10))
	}
	loose := DawaL1Partition(noisy, 10.0, 0) // cheap measurements
	tight := DawaL1Partition(noisy, 0.01, 0) // expensive measurements
	if tight.K > loose.K {
		t.Fatalf("bucket counts: tight ε %d > loose ε %d", tight.K, loose.K)
	}
	if math.Abs(float64(tight.K-1)) > 2 {
		t.Fatalf("tiny budget should collapse to ~1 bucket, got %d", tight.K)
	}
}
