package selection

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/mat"
	"repro/internal/vec"
)

func TestIdentityTotal(t *testing.T) {
	if r, c := Identity(4).Dims(); r != 4 || c != 4 {
		t.Fatal("Identity dims")
	}
	if r, _ := Total(4).Dims(); r != 1 {
		t.Fatal("Total dims")
	}
}

func TestPriveletPowerOfTwo(t *testing.T) {
	m := Privelet(8)
	r, c := m.Dims()
	if r != 8 || c != 8 {
		t.Fatalf("dims = %dx%d", r, c)
	}
	// The wavelet strategy must be invertible: LS on noiseless answers
	// recovers x exactly; here we just check full rank via the gram diag.
	g := mat.Gram(m)
	for i := 0; i < 8; i++ {
		if g.At(i, i) <= 0 {
			t.Fatalf("gram diag %d = %v", i, g.At(i, i))
		}
	}
}

func TestPriveletPadsNonPowerOfTwo(t *testing.T) {
	m := Privelet(6)
	r, c := m.Dims()
	if c != 6 || r != 8 {
		t.Fatalf("padded dims = %dx%d, want 8x6", r, c)
	}
	// Column-subset semantics: same as dense wavelet's first 6 columns.
	w := mat.Materialize(mat.Wavelet(8))
	d := mat.Materialize(m)
	for i := 0; i < 8; i++ {
		for j := 0; j < 6; j++ {
			if d.At(i, j) != w.At(i, j) {
				t.Fatalf("pad mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Abs must also distribute through the pad.
	if !mat.Equal(mat.Abs(m), mat.Materialize(m).Abs(), 1e-12) {
		t.Fatal("padded abs mismatch")
	}
}

func TestH2Structure(t *testing.T) {
	m := H2(8)
	r, c := m.Dims()
	// Identity (8) + internal nodes (7).
	if r != 15 || c != 8 {
		t.Fatalf("H2 dims = %dx%d, want 15x8", r, c)
	}
	// Sensitivity of a binary hierarchy over 8 = 1 (identity) + depth 3.
	if got := mat.L1Sensitivity(m); got != 4 {
		t.Fatalf("H2 sensitivity = %v, want 4", got)
	}
}

func TestH2TrivialDomain(t *testing.T) {
	m := H2(1)
	if r, c := m.Dims(); r != 1 || c != 1 {
		t.Fatalf("H2(1) dims = %dx%d", r, c)
	}
}

func TestHBBranchingReasonable(t *testing.T) {
	for _, n := range []int{16, 256, 4096, 65536} {
		b := HBBranching(n)
		if b < 2 || b > n {
			t.Fatalf("HBBranching(%d) = %d", n, b)
		}
	}
	// Larger domains should not pick branching 2 (HB's whole point).
	if b := HBBranching(4096); b <= 2 {
		t.Fatalf("HBBranching(4096) = %d, expected > 2", b)
	}
}

func TestHBFullRank(t *testing.T) {
	m := HB(64)
	_, c := m.Dims()
	if c != 64 {
		t.Fatal("HB cols")
	}
	// Noiseless recovery check via normal equations residual: any x must
	// be recoverable since Identity is included.
	if got := mat.L1Sensitivity(m); got < 2 {
		t.Fatalf("HB sensitivity = %v, implausible", got)
	}
}

func TestGreedyHWeightsFavorUsedLevels(t *testing.T) {
	n := 16
	// Workload of only whole-domain queries: the root level is used n
	// times, leaves never (beyond smoothing).
	wl := []mat.Range1D{}
	for i := 0; i < 20; i++ {
		wl = append(wl, mat.Range1D{Lo: 0, Hi: n - 1})
	}
	m := GreedyH(n, wl)
	d := mat.Materialize(m)
	// Row 0 is the root range; its weight must be the maximum (1).
	rootW := d.At(0, 0)
	if math.Abs(rootW-1) > 1e-12 {
		t.Fatalf("root weight = %v, want 1", rootW)
	}
	// A leaf row's weight must be strictly smaller.
	r, _ := m.Dims()
	leafW := 0.0
	for j := 0; j < n; j++ {
		if v := d.At(r-1, j); v != 0 {
			leafW = v
		}
	}
	if leafW >= rootW {
		t.Fatalf("leaf weight %v >= root weight %v", leafW, rootW)
	}
}

func TestGreedyHAnswersWorkload(t *testing.T) {
	// The weighted hierarchy must still span range queries: noiseless LS
	// solves exactly (full rank because leaves are included).
	n := 8
	m := GreedyH(n, []mat.Range1D{{Lo: 0, Hi: 3}, {Lo: 2, Hi: 7}})
	g := mat.Gram(m)
	for i := 0; i < n; i++ {
		if g.At(i, i) <= 0 {
			t.Fatal("GreedyH rank-deficient")
		}
	}
}

func TestQuadTreeCellCount(t *testing.T) {
	m := QuadTree(4, 4)
	r, c := m.Dims()
	if c != 16 {
		t.Fatalf("cols = %d", c)
	}
	// 4x4 quadtree: 1 root + 4 + 16 = 21 nodes.
	if r != 21 {
		t.Fatalf("quadtree rows = %d, want 21", r)
	}
	// Root row answers the total.
	x := vec.Ones(16)
	if got := mat.Mul(m, x)[0]; got != 16 {
		t.Fatalf("root = %v", got)
	}
}

func TestQuadTreeNonSquare(t *testing.T) {
	m := QuadTree(2, 8)
	_, c := m.Dims()
	if c != 16 {
		t.Fatalf("cols = %d", c)
	}
	// All boxes valid: evaluate against ones without panic.
	mat.Mul(m, vec.Ones(16))
}

func TestUniformGridCovers(t *testing.T) {
	m := UniformGrid(6, 6, 3)
	r, c := m.Dims()
	if r != 9 || c != 36 {
		t.Fatalf("dims = %dx%d", r, c)
	}
	// The blocks tile the domain: summing all answers = total.
	x := vec.Ones(36)
	ans := mat.Mul(m, x)
	if vec.Sum(ans) != 36 {
		t.Fatalf("grid mass = %v", vec.Sum(ans))
	}
	if got := mat.L1Sensitivity(m); got != 1 {
		t.Fatalf("grid sensitivity = %v, want 1 (disjoint blocks)", got)
	}
}

func TestUniformGridCellsFormula(t *testing.T) {
	if g := UniformGridCells(10000, 0.1, 100); g != 10 {
		t.Fatalf("g = %d, want 10", g)
	}
	if g := UniformGridCells(1, 0.001, 100); g != 1 {
		t.Fatalf("tiny data g = %d, want 1", g)
	}
	if g := UniformGridCells(1e12, 1, 32); g != 32 {
		t.Fatalf("clamped g = %d, want 32", g)
	}
}

func TestAdaptiveGridCells(t *testing.T) {
	if g := AdaptiveGridCells(-5, 1, 10); g != 1 {
		t.Fatal("negative noisy count must clamp")
	}
	if g := AdaptiveGridCells(1e9, 1, 8); g != 8 {
		t.Fatal("side clamp failed")
	}
}

func TestStripeKronShape(t *testing.T) {
	shape := []int{3, 4, 2}
	m := StripeKron(shape, 1, H2)
	_, c := m.Dims()
	if c != 24 {
		t.Fatalf("cols = %d", c)
	}
	hbRows, _ := H2(4).Dims()
	r, _ := m.Dims()
	if r != 3*hbRows*2 {
		t.Fatalf("rows = %d, want %d", r, 3*hbRows*2)
	}
	// Sensitivity factors: σ(I)·σ(H2(4))·σ(I) = σ(H2(4)).
	if got, want := mat.L1Sensitivity(m), mat.L1Sensitivity(H2(4)); math.Abs(got-want) > 1e-9 {
		t.Fatalf("stripe kron sensitivity = %v, want %v", got, want)
	}
}

func TestSingleRange(t *testing.T) {
	m := SingleRange(6, mat.Range1D{Lo: 2, Hi: 4})
	got := mat.Mul(m, []float64{1, 2, 3, 4, 5, 6})
	if got[0] != 12 {
		t.Fatalf("single range = %v", got[0])
	}
}

func TestAugmentH2Disjoint(t *testing.T) {
	n := 16
	sel := mat.Range1D{Lo: 5, Hi: 9}
	for round := 1; round <= 4; round++ {
		m := AugmentH2(n, sel, round)
		// The augmentation must keep sensitivity 1: all rows disjoint.
		if got := mat.L1Sensitivity(m); got != 1 {
			t.Fatalf("round %d sensitivity = %v, want 1 (parallel composition)", round, got)
		}
		r, _ := m.Dims()
		if r < 1 {
			t.Fatalf("round %d lost the selected query", round)
		}
		if round == 1 && r < 8 {
			t.Fatalf("round 1 should add many unit queries, rows = %d", r)
		}
	}
}

func TestAugmentH2LengthsGrow(t *testing.T) {
	n := 16
	sel := mat.Range1D{Lo: 0, Hi: 0}
	m1 := AugmentH2(n, sel, 1)
	m3 := AugmentH2(n, sel, 3)
	r1, _ := m1.Dims()
	r3, _ := m3.Dims()
	// Round 1 adds unit ranges (many), round 3 adds length-4 ranges (few).
	if r1 <= r3 {
		t.Fatalf("rows: round1 %d, round3 %d — expected shrinking", r1, r3)
	}
}

func TestHDMMScorePrefersIdentityForIdentityWorkload(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	n := 32
	w := mat.Identity(n)
	idScore := HDMMScore(w, mat.Identity(n), 32, rng)
	h2Score := HDMMScore(w, H2(n), 32, rng)
	if idScore >= h2Score {
		t.Fatalf("identity workload: id score %v >= h2 score %v", idScore, h2Score)
	}
}

func TestHDMMSelectPrefersHierarchyForPrefix(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	n := 64
	chosen := HDMMSelect([]mat.Matrix{mat.Prefix(n)}, 64, rng)
	// For the prefix workload a hierarchical strategy beats identity:
	// verify the chosen strategy's score is no worse than identity's.
	chosenScore := HDMMScore(mat.Prefix(n), chosen, 64, rng)
	idScore := HDMMScore(mat.Prefix(n), mat.Identity(n), 64, rng)
	if chosenScore > idScore*1.05 {
		t.Fatalf("HDMM chose a worse strategy: %v vs identity %v", chosenScore, idScore)
	}
}

func TestHDMMSelectKron(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	m := HDMMSelect([]mat.Matrix{mat.Prefix(4), mat.Identity(3)}, 16, rng)
	_, c := m.Dims()
	if c != 12 {
		t.Fatalf("kron strategy cols = %d, want 12", c)
	}
}
