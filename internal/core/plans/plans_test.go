package plans

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/noise"
	"repro/internal/solver"
	"repro/internal/vec"
	"repro/internal/workload"
)

// newVecKernel wraps a data vector in a fresh kernel.
func newVecKernel(x []float64, eps float64, seed uint64) (*kernel.Kernel, *kernel.Handle) {
	return kernel.InitVector(x, eps, noise.NewRand(seed))
}

// l2err is the per-query L2 error of an estimate against the truth under
// a workload.
func l2err(w mat.Matrix, xhat, x []float64) float64 {
	a := mat.Mul(w, xhat)
	b := mat.Mul(w, x)
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a)))
}

func testData(n int, seed uint64) []float64 {
	return dataset.Synthetic1D("piecewise", n, 20000, seed)
}

// highEps runs every plan in a regime where noise is negligible, so all
// plans must recover the data almost exactly — the strongest end-to-end
// correctness check (selection, measurement, lineage and inference all
// have to be right).
func TestPlansNearExactAtHighEps(t *testing.T) {
	n := 64
	x := testData(n, 1)
	const eps = 1e7
	cases := []struct {
		name string
		run  func(h *kernel.Handle) ([]float64, error)
	}{
		{"identity", func(h *kernel.Handle) ([]float64, error) { return Identity(h, eps) }},
		{"privelet", func(h *kernel.Handle) ([]float64, error) { return PriveletGraph(eps).Execute(h) }},
		{"h2", func(h *kernel.Handle) ([]float64, error) { return H2Graph(eps).Execute(h) }},
		{"hb", func(h *kernel.Handle) ([]float64, error) { return HB(h, eps) }},
		{"greedyh", func(h *kernel.Handle) ([]float64, error) {
			return GreedyHGraph([]mat.Range1D{{Lo: 0, Hi: 31}, {Lo: 16, Hi: 63}}, eps).Execute(h)
		}},
		{"ahp", func(h *kernel.Handle) ([]float64, error) { return AHP(h, eps, AHPConfig{}) }},
		{"dawa", func(h *kernel.Handle) ([]float64, error) { return DAWA(h, eps, DAWAConfig{}) }},
	}
	for _, c := range cases {
		_, h := newVecKernel(x, eps, 7)
		got, err := c.run(h)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// AHP/DAWA merge noise-indistinguishable cells, but at huge ε the
		// partition is data-exact, so totals on moderate ranges hold.
		w := mat.RangeQueries(n, []mat.Range1D{{Lo: 0, Hi: n - 1}, {Lo: 0, Hi: n/2 - 1}})
		if e := l2err(w, got, x); e > 1 {
			t.Errorf("%s: range error %v at ε=1e7", c.name, e)
		}
	}
}

func TestUniformPlanSpreadsTotal(t *testing.T) {
	n := 16
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	_, h := newVecKernel(x, 1e8, 3)
	got, err := UniformGraph(1e8).Execute(h)
	if err != nil {
		t.Fatal(err)
	}
	total := vec.Sum(x)
	for _, v := range got {
		if math.Abs(v-total/float64(n)) > 1e-3 {
			t.Fatalf("uniform estimate = %v", got)
		}
	}
}

func TestIdentityPlanBudget(t *testing.T) {
	x := testData(32, 2)
	k, h := newVecKernel(x, 1.0, 11)
	if _, err := Identity(h, 0.75); err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.Consumed()-0.75) > 1e-9 {
		t.Fatalf("consumed = %v", k.Consumed())
	}
	// Over-budget second run must fail cleanly.
	if _, err := Identity(h, 0.5); err == nil {
		t.Fatal("budget not enforced across plans")
	}
}

func TestMWEMRunsAndRespectsBudget(t *testing.T) {
	n := 128
	x := testData(n, 3)
	rng := rand.New(rand.NewPCG(5, 5))
	w := workload.RandomRange(n, 40, rng)
	k, h := newVecKernel(x, 1.0, 13)
	got, err := MWEM(h, w, 1.0, MWEMConfig{Rounds: 6, Total: vec.Sum(x)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("estimate length %d", len(got))
	}
	if k.Consumed() > 1.0+1e-6 {
		t.Fatalf("MWEM overspent: %v", k.Consumed())
	}
	// Mass preservation (MW inference keeps the known total).
	if math.Abs(vec.Sum(got)-vec.Sum(x)) > 1 {
		t.Fatalf("MWEM total = %v, want %v", vec.Sum(got), vec.Sum(x))
	}
}

func TestMWEMVariantsRun(t *testing.T) {
	n := 64
	x := testData(n, 4)
	rng := rand.New(rand.NewPCG(6, 6))
	w := workload.RandomRange(n, 30, rng)
	for _, cfg := range []MWEMConfig{
		{Rounds: 4, Total: vec.Sum(x), AugmentH2: true},
		{Rounds: 4, Total: vec.Sum(x), UseNNLS: true},
		{Rounds: 4, Total: vec.Sum(x), AugmentH2: true, UseNNLS: true},
	} {
		k, h := newVecKernel(x, 1.0, 17)
		got, err := MWEM(h, w, 1.0, cfg)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if len(got) != n {
			t.Fatal("bad output length")
		}
		if k.Consumed() > 1.0+1e-6 {
			t.Fatalf("cfg %+v overspent: %v", cfg, k.Consumed())
		}
		if cfg.UseNNLS {
			for i, v := range got {
				if v < -1e-6 {
					t.Fatalf("NNLS variant negative x[%d]=%v", i, v)
				}
			}
		}
	}
}

func TestMWEMAugmentedBeatsPlainOnStructuredData(t *testing.T) {
	// Averaged over seeds, the augmented selection of plan #20 should
	// help on piecewise data with a range workload once the budget is
	// large enough for the extra measurements to carry signal (paper
	// Table 4 direction: improvement factors ≥ ~1).
	n := 256
	x := dataset.Synthetic1D("piecewise", n, 50000, 9)
	rng := rand.New(rand.NewPCG(8, 8))
	w := workload.RandomRange(n, 100, rng)
	const eps = 2.0
	var plain, aug float64
	trials := 6
	for s := uint64(0); s < uint64(trials); s++ {
		_, h1 := newVecKernel(x, eps, 100+s)
		g1, err := MWEM(h1, w, eps, MWEMConfig{Rounds: 8, Total: vec.Sum(x)})
		if err != nil {
			t.Fatal(err)
		}
		plain += l2err(w, g1, x)
		_, h2 := newVecKernel(x, eps, 200+s)
		g2, err := MWEM(h2, w, eps, MWEMConfig{Rounds: 8, Total: vec.Sum(x), AugmentH2: true, UseNNLS: true})
		if err != nil {
			t.Fatal(err)
		}
		aug += l2err(w, g2, x)
	}
	if aug > plain*1.2 {
		t.Fatalf("augmented MWEM worse at ε=%v: plain %v aug %v", eps, plain/float64(trials), aug/float64(trials))
	}
}

func TestQuadTreePlan(t *testing.T) {
	x := dataset.Grid2D(8, 8, 5000, 21)
	_, h := newVecKernel(x, 1e7, 19)
	got, err := QuadTree(h, 8, 8, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.AllClose(got, x, 1e-3, 1e-2) {
		t.Fatal("quadtree near-exact recovery failed at huge ε")
	}
}

func TestUniformGridPlan(t *testing.T) {
	x := dataset.Grid2D(16, 16, 10000, 22)
	_, h := newVecKernel(x, 1.0, 23)
	got, err := UniformGrid(h, 16, 16, vec.Sum(x), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Totals must be approximately preserved (grid covers the domain).
	if math.Abs(vec.Sum(got)-vec.Sum(x)) > 2000 {
		t.Fatalf("grid total = %v, want ≈%v", vec.Sum(got), vec.Sum(x))
	}
}

func TestAdaptiveGridPlan(t *testing.T) {
	x := dataset.Grid2D(16, 16, 20000, 24)
	k, h := newVecKernel(x, 1.0, 29)
	got, err := AdaptiveGrid(h, 16, 16, 1.0, AdaptiveGridConfig{NEst: vec.Sum(x)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 256 {
		t.Fatal("bad output length")
	}
	// Parallel composition: level 1 (0.5) + level 2 max over blocks (0.5).
	if k.Consumed() > 1.0+1e-6 {
		t.Fatalf("AdaptiveGrid overspent: %v", k.Consumed())
	}
	if math.Abs(vec.Sum(got)-vec.Sum(x)) > 4000 {
		t.Fatalf("adaptive grid total = %v, want ≈%v", vec.Sum(got), vec.Sum(x))
	}
}

func TestHDMMPlan(t *testing.T) {
	n := 64
	x := testData(n, 5)
	rng := rand.New(rand.NewPCG(9, 9))
	_, h := newVecKernel(x, 1e7, 31)
	got, err := HDMM(h, []mat.Matrix{mat.Prefix(n)}, 1e7, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.AllClose(got, x, 1e-3, 1e-2) {
		t.Fatal("HDMM near-exact recovery failed")
	}
}

func TestStripedPlansSmallDomain(t *testing.T) {
	// 3-attribute domain 4x8x2 = 64; stripe along dim 1.
	shape := []int{4, 8, 2}
	n := 64
	x := testData(n, 6)
	solverOpts := solver.Options{MaxIter: 800, Tol: 1e-12}

	k1, h1 := newVecKernel(x, 1e7, 37)
	hb, err := HBStriped(h1, shape, 1, 1e7, solverOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.AllClose(hb, x, 1e-3, 1e-2) {
		t.Fatal("HB-striped near-exact recovery failed")
	}
	// Parallel composition across stripes: total spend is ε, not ε×stripes.
	if k1.Consumed() > 1e7+1 {
		t.Fatalf("HB-striped overspent: %v", k1.Consumed())
	}

	_, h2 := newVecKernel(x, 1e7, 41)
	kr, err := HBStripedKron(h2, shape, 1, 1e7, solverOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.AllClose(kr, x, 1e-3, 1e-2) {
		t.Fatal("HB-striped-kron near-exact recovery failed")
	}

	_, h3 := newVecKernel(x, 1e7, 43)
	dw, err := DAWAStriped(h3, shape, 1, 1e7, DAWAStripedConfig{Solver: solverOpts})
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Marginal(dataset.Schema{{Name: "a", Size: 4}, {Name: "b", Size: 8}, {Name: "c", Size: 2}}, "a")
	if e := l2err(w, dw, x); e > 1 {
		t.Fatalf("DAWA-striped marginal error = %v", e)
	}
}

func TestHBStripedMatchesKronMeasurements(t *testing.T) {
	// Plans #15 and #16 express the same measurement set; at huge ε both
	// recover x, and their budget accounting must agree.
	shape := []int{2, 4}
	x := []float64{5, 1, 0, 2, 7, 3, 4, 6}
	k1, h1 := newVecKernel(x, 100, 47)
	if _, err := HBStriped(h1, shape, 1, 1, solver.Options{}); err != nil {
		t.Fatal(err)
	}
	k2, h2 := newVecKernel(x, 100, 53)
	if _, err := HBStripedKron(h2, shape, 1, 1, solver.Options{}); err != nil {
		t.Fatal(err)
	}
	// Both charge σ(HB(4))·1 at the root.
	if math.Abs(k1.Consumed()-k2.Consumed()) > 1e-9 {
		t.Fatalf("striped %v vs kron %v root charge", k1.Consumed(), k2.Consumed())
	}
}

func TestPrivBayesPlans(t *testing.T) {
	// Small 3-attribute table with strong correlation between 0 and 1.
	schema := dataset.Schema{{Name: "a", Size: 4}, {Name: "b", Size: 4}, {Name: "c", Size: 2}}
	tbl := dataset.New(schema)
	rng := rand.New(rand.NewPCG(55, 56))
	for i := 0; i < 4000; i++ {
		a := rng.IntN(4)
		b := a // perfectly correlated
		c := rng.IntN(2)
		tbl.Append(a, b, c)
	}
	x := tbl.Vectorize()
	shape := []int{4, 4, 2}

	k, h := newVecKernel(x, 10, 59)
	cfg := PrivBayesConfig{Shape: shape}
	got, err := PrivBayes(h, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 32 {
		t.Fatal("bad output length")
	}
	if k.Consumed() > 5+1e-9 {
		t.Fatalf("PrivBayes overspent: %v", k.Consumed())
	}
	// Product form must produce a non-negative distribution summing to ~N.
	var total float64
	for _, v := range got {
		if v < 0 {
			t.Fatal("PrivBayes negative mass")
		}
		total += v
	}
	if math.Abs(total-4000) > 400 {
		t.Fatalf("PrivBayes total = %v", total)
	}

	_, h2 := newVecKernel(x, 10, 61)
	gotLS, err := PrivBayesLS(h2, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotLS) != 32 {
		t.Fatal("bad LS output length")
	}
}

func TestPrivBayesCapturesCorrelation(t *testing.T) {
	// With near-zero noise, the product form over a perfectly correlated
	// pair should put mass only on the diagonal cells.
	schema := dataset.Schema{{Name: "a", Size: 3}, {Name: "b", Size: 3}}
	tbl := dataset.New(schema)
	rng := rand.New(rand.NewPCG(63, 64))
	for i := 0; i < 3000; i++ {
		a := rng.IntN(3)
		tbl.Append(a, a)
	}
	x := tbl.Vectorize()
	_, h := newVecKernel(x, 1e8, 65)
	got, err := PrivBayes(h, 1e7, PrivBayesConfig{Shape: []int{3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var offDiag float64
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if a != b {
				offDiag += got[a*3+b]
			}
		}
	}
	if offDiag > 1 {
		t.Fatalf("off-diagonal mass = %v, want ≈0", offDiag)
	}
}

func TestAdaptiveGridRaggedDomain(t *testing.T) {
	// Non-square, non-divisible domain exercises the ragged block-dims
	// arithmetic.
	h, w := 13, 17
	x := dataset.Grid2D(h, w, 3000, 77)
	k, hd := newVecKernel(x, 1.0, 79)
	got, err := AdaptiveGrid(hd, h, w, 1.0, AdaptiveGridConfig{NEst: vec.Sum(x)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != h*w {
		t.Fatalf("output length %d", len(got))
	}
	if k.Consumed() > 1.0+1e-6 {
		t.Fatalf("overspent: %v", k.Consumed())
	}
}

func TestQuadTreeRaggedDomain(t *testing.T) {
	x := dataset.Grid2D(5, 9, 2000, 81)
	_, hd := newVecKernel(x, 1e7, 83)
	got, err := QuadTree(hd, 5, 9, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.AllClose(got, x, 1e-3, 1e-1) {
		t.Fatal("ragged quadtree recovery failed")
	}
}
