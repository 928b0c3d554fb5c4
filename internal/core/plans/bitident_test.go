package plans

// This file pins the operator-graph port of every registry plan against
// verbatim copies of the pre-graph implementations: under a fixed
// kernel seed, each plan's output must be bit-identical (float64 ==) to
// the legacy path, because the graphs issue exactly the same kernel
// calls in exactly the same order. It also pins each builder's rendered
// signature, cross-checking the executable graphs against the Fig. 2
// registry notation.

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/core/inference"
	"repro/internal/core/partition"
	"repro/internal/core/selection"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/solver"
	"repro/internal/vec"
	"repro/internal/workload"
)

// --- verbatim pre-graph implementations -----------------------------

func legacyMeasureLS(h *kernel.Handle, m mat.Matrix, eps float64, opts solver.Options) ([]float64, error) {
	y, scale, err := h.VectorLaplace(m, eps)
	if err != nil {
		return nil, err
	}
	ms := inference.NewMeasurements(h.Domain())
	ms.Add(m, y, scale)
	return ms.LeastSquares(opts), nil
}

func legacyIdentity(h *kernel.Handle, eps float64) ([]float64, error) {
	y, _, err := h.VectorLaplace(selection.Identity(h.Domain()), eps)
	return y, err
}

func legacyMWEM(h *kernel.Handle, w *mat.RangeQueriesMat, eps float64, cfg MWEMConfig) ([]float64, error) {
	n := h.Domain()
	if cfg.Rounds <= 0 {
		cfg.Rounds = 10
	}
	if cfg.MWIters <= 0 {
		cfg.MWIters = 20
	}
	ranges := w.Ranges1D()
	epsSelect := eps / (2 * float64(cfg.Rounds))
	epsMeasure := eps / (2 * float64(cfg.Rounds))

	xEst := make([]float64, n)
	vec.Fill(xEst, cfg.Total/float64(n))

	ms := inference.NewMeasurements(n)
	if cfg.UseNNLS {
		ms.AddExact(mat.Total(n), []float64{cfg.Total})
	}
	ws := mat.NewWorkspace()
	for t := 1; t <= cfg.Rounds; t++ {
		sel, err := h.WorstApprox(w, xEst, epsSelect, 1)
		if err != nil {
			return nil, err
		}
		var m mat.Matrix
		if cfg.AugmentH2 {
			m = selection.AugmentH2(n, ranges[sel], t)
		} else {
			m = selection.SingleRange(n, ranges[sel])
		}
		y, scale, err := h.VectorLaplace(m, epsMeasure)
		if err != nil {
			return nil, err
		}
		ms.Add(m, y, scale)
		if cfg.UseNNLS {
			xEst = ms.NNLS(solver.Options{MaxIter: 800, X0: xEst, Work: ws})
		} else {
			xEst = ms.MultWeights(xEst, cfg.MWIters)
		}
	}
	return xEst, nil
}

func legacyAHP(h *kernel.Handle, eps float64, cfg AHPConfig) ([]float64, error) {
	if cfg.Rho <= 0 || cfg.Rho >= 1 {
		cfg.Rho = 0.5
	}
	if cfg.Eta <= 0 {
		cfg.Eta = 0.35
	}
	n := h.Domain()
	eps1, eps2 := cfg.Rho*eps, (1-cfg.Rho)*eps

	noisy, _, err := h.VectorLaplace(selection.Identity(n), eps1)
	if err != nil {
		return nil, err
	}
	p := partition.AHPCluster(noisy, cfg.Eta, eps1)
	reduced := h.ReduceByPartition(p.Matrix())
	y, scale, err := reduced.VectorLaplace(selection.Identity(p.K), eps2)
	if err != nil {
		return nil, err
	}
	ms := inference.NewMeasurements(n)
	ms.Add(reduced.MapTo(h, selection.Identity(p.K)), y, scale)
	return ms.LeastSquares(solver.Options{}), nil
}

func legacyDAWA(h *kernel.Handle, eps float64, cfg DAWAConfig) ([]float64, error) {
	if cfg.Rho <= 0 || cfg.Rho >= 1 {
		cfg.Rho = 0.25
	}
	if cfg.MaxBucket <= 0 {
		cfg.MaxBucket = 1024
	}
	n := h.Domain()
	eps1, eps2 := cfg.Rho*eps, (1-cfg.Rho)*eps

	noisy, _, err := h.VectorLaplace(selection.Identity(n), eps1)
	if err != nil {
		return nil, err
	}
	p := partition.DawaL1Partition(noisy, eps2, cfg.MaxBucket)
	reduced := h.ReduceByPartition(p.Matrix())

	wl := cfg.Workload
	if wl == nil {
		wl = identityRanges(n)
	}
	strategy := selection.GreedyH(p.K, mapRangesToPartition(wl, p))
	y, scale, err := reduced.VectorLaplace(strategy, eps2)
	if err != nil {
		return nil, err
	}
	ms := inference.NewMeasurements(n)
	ms.Add(reduced.MapTo(h, strategy), y, scale)
	return ms.LeastSquares(solver.Options{}), nil
}

func legacyCDFEstimator(h *kernel.Handle, eps float64, cfg CDFConfig) ([]float64, error) {
	if cfg.Rho <= 0 || cfg.Rho >= 1 {
		cfg.Rho = 0.5
	}
	if cfg.Eta <= 0 {
		cfg.Eta = 0.35
	}
	if cfg.Solver.MaxIter == 0 {
		cfg.Solver.MaxIter = 600
	}
	n := h.Domain()
	eps1, eps2 := cfg.Rho*eps, (1-cfg.Rho)*eps

	noisy, _, err := h.VectorLaplace(selection.Identity(n), eps1)
	if err != nil {
		return nil, err
	}
	p := partition.AHPCluster(noisy, cfg.Eta, eps1)
	reduced := h.ReduceByPartition(p.Matrix())
	strategy := selection.Identity(p.K)
	y, scale, err := reduced.VectorLaplace(strategy, eps2)
	if err != nil {
		return nil, err
	}
	ms := inference.NewMeasurements(n)
	ms.Add(reduced.MapTo(h, strategy), y, scale)
	xhat := ms.NNLS(cfg.Solver)
	return mat.Mul(mat.Prefix(n), xhat), nil
}

func legacyAdaptiveGrid(hd *kernel.Handle, height, width int, eps float64, cfg AdaptiveGridConfig) ([]float64, error) {
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		cfg.Alpha = 0.5
	}
	eps1, eps2 := cfg.Alpha*eps, (1-cfg.Alpha)*eps
	side := height
	if width < side {
		side = width
	}
	g1 := selection.UniformGridCells(cfg.NEst, eps1, side)
	cellH := (height + g1 - 1) / g1
	cellW := (width + g1 - 1) / g1
	p := partition.Grid(height, width, cellH, cellW)
	m1 := p.Matrix()
	y1, scale1, err := hd.VectorLaplace(m1, eps1)
	if err != nil {
		return nil, err
	}
	ms := inference.NewMeasurements(hd.Domain())
	ms.Add(m1, y1, scale1)

	subs := hd.SplitByPartition(p.Groups, p.K)
	blocksPerRow := (width + cellW - 1) / cellW
	for g, sub := range subs {
		if sub.Domain() == 0 {
			continue
		}
		bh, bw := blockDims(height, width, cellH, cellW, g, blocksPerRow)
		g2 := selection.AdaptiveGridCells(y1[g], eps2, minInt(bh, bw))
		m2 := selection.UniformGrid(bh, bw, g2)
		y2, scale2, err := sub.VectorLaplace(m2, eps2)
		if err != nil {
			return nil, err
		}
		ms.Add(sub.MapTo(hd, m2), y2, scale2)
	}
	return ms.LeastSquares(solver.Options{MaxIter: 500, Tol: 1e-8}), nil
}

func legacyHBStriped(h *kernel.Handle, shape []int, dim int, eps float64, opts solver.Options) ([]float64, error) {
	p := partition.Stripe(shape, dim)
	subs := h.SplitByPartition(p.Groups, p.K)
	ms := inference.NewMeasurements(h.Domain())
	strategy := selection.HB(shape[dim])
	for _, sub := range subs {
		y, scale, err := sub.VectorLaplace(strategy, eps)
		if err != nil {
			return nil, err
		}
		ms.Add(sub.MapTo(h, strategy), y, scale)
	}
	return ms.LeastSquares(opts), nil
}

func legacyDAWAStriped(h *kernel.Handle, shape []int, dim int, eps float64, cfg DAWAStripedConfig) ([]float64, error) {
	if cfg.Rho <= 0 || cfg.Rho >= 1 {
		cfg.Rho = 0.25
	}
	if cfg.MaxBucket <= 0 {
		cfg.MaxBucket = 1024
	}
	p := partition.Stripe(shape, dim)
	subs := h.SplitByPartition(p.Groups, p.K)
	ms := inference.NewMeasurements(h.Domain())
	eps1, eps2 := cfg.Rho*eps, (1-cfg.Rho)*eps
	stripeLen := shape[dim]
	stripeWL := cfg.StripeWorkload
	if stripeWL == nil {
		stripeWL = identityRanges(stripeLen)
	}
	for _, sub := range subs {
		noisy, _, err := sub.VectorLaplace(selection.Identity(stripeLen), eps1)
		if err != nil {
			return nil, err
		}
		sp := partition.DawaL1Partition(noisy, eps2, cfg.MaxBucket)
		reduced := sub.ReduceByPartition(sp.Matrix())
		strategy := selection.GreedyH(sp.K, mapRangesToPartition(stripeWL, sp))
		y, scale, err := reduced.VectorLaplace(strategy, eps2)
		if err != nil {
			return nil, err
		}
		ms.Add(reduced.MapTo(h, strategy), y, scale)
	}
	return ms.LeastSquares(cfg.Solver), nil
}

func legacyPrivBayesMeasure(h *kernel.Handle, eps float64, cfg *PrivBayesConfig) (selection.BayesNet, mat.Matrix, []float64, float64, float64, error) {
	cfg.fill()
	n := h.Domain()
	var net selection.BayesNet

	nEst, _, err := h.VectorLaplace(mat.Total(n), cfg.EpsTotalShare*eps)
	if err != nil {
		return net, nil, nil, 0, 0, err
	}
	total := nEst[0]
	if total < 2 {
		total = 2
	}
	m, net, err := selection.PrivBayesSelect(h, cfg.Shape, cfg.EpsSelectShare*eps, total)
	if err != nil {
		return net, nil, nil, 0, 0, err
	}
	y, scale, err := h.VectorLaplace(m, cfg.EpsMeasureShare*eps)
	if err != nil {
		return net, nil, nil, 0, 0, err
	}
	return net, m, y, scale, total, nil
}

func legacyPrivBayes(h *kernel.Handle, eps float64, cfg PrivBayesConfig) ([]float64, error) {
	net, _, y, _, total, err := legacyPrivBayesMeasure(h, eps, &cfg)
	if err != nil {
		return nil, err
	}
	return privBayesProductForm(cfg.Shape, net, y, total), nil
}

func legacyPrivBayesLS(h *kernel.Handle, eps float64, cfg PrivBayesConfig) ([]float64, error) {
	_, m, y, scale, _, err := legacyPrivBayesMeasure(h, eps, &cfg)
	if err != nil {
		return nil, err
	}
	ms := inference.NewMeasurements(h.Domain())
	ms.Add(m, y, scale)
	return ms.LeastSquares(cfg.Solver), nil
}

func legacyWithWorkloadReduction(
	h *kernel.Handle,
	w mat.Matrix,
	rng *rand.Rand,
	plan func(h *kernel.Handle) ([]float64, error),
) (answers []float64, p partition.Partition, err error) {
	p = partition.WorkloadBased(w, rng, 2)
	reduced := h.ReduceByPartition(p.Matrix())
	xr, err := plan(reduced)
	if err != nil {
		return nil, p, err
	}
	wReduced := p.ReduceWorkload(w)
	return mat.Mul(wReduced, xr), p, nil
}

// --- bit-identity harness -------------------------------------------

// assertBitIdentical runs the legacy and graph paths on identically
// seeded kernels and requires float64-equal outputs.
func assertBitIdentical(t *testing.T, name string, n int, eps float64, seed uint64,
	legacy, graph func(h *kernel.Handle) ([]float64, error)) {
	t.Helper()
	x := testData(n, seed)
	_, h1 := newVecKernel(x, eps+1, seed)
	want, err := legacy(h1)
	if err != nil {
		t.Fatalf("%s legacy: %v", name, err)
	}
	_, h2 := newVecKernel(x, eps+1, seed)
	got, err := graph(h2)
	if err != nil {
		t.Fatalf("%s graph: %v", name, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: output[%d] = %v, legacy %v — graph port is not bit-identical", name, i, got[i], want[i])
		}
	}
}

func TestGraphPortBitIdenticalMeasureLS(t *testing.T) {
	const eps = 2.0
	cases := []struct {
		name   string
		legacy func(h *kernel.Handle) ([]float64, error)
		graph  func(h *kernel.Handle) ([]float64, error)
	}{
		{"Identity",
			func(h *kernel.Handle) ([]float64, error) { return legacyIdentity(h, eps) },
			func(h *kernel.Handle) ([]float64, error) { return Identity(h, eps) }},
		{"Privelet",
			func(h *kernel.Handle) ([]float64, error) {
				return legacyMeasureLS(h, selection.Privelet(h.Domain()), eps, solver.Options{})
			},
			func(h *kernel.Handle) ([]float64, error) { return PriveletGraph(eps).Execute(h) }},
		{"H2",
			func(h *kernel.Handle) ([]float64, error) {
				return legacyMeasureLS(h, selection.H2(h.Domain()), eps, solver.Options{})
			},
			func(h *kernel.Handle) ([]float64, error) { return H2Graph(eps).Execute(h) }},
		{"HB",
			func(h *kernel.Handle) ([]float64, error) {
				return legacyMeasureLS(h, selection.HB(h.Domain()), eps, solver.Options{})
			},
			func(h *kernel.Handle) ([]float64, error) { return HB(h, eps) }},
		{"GreedyH",
			func(h *kernel.Handle) ([]float64, error) {
				wl := []mat.Range1D{{Lo: 0, Hi: 31}, {Lo: 16, Hi: 63}}
				return legacyMeasureLS(h, selection.GreedyH(h.Domain(), wl), eps, solver.Options{})
			},
			func(h *kernel.Handle) ([]float64, error) {
				return GreedyHGraph([]mat.Range1D{{Lo: 0, Hi: 31}, {Lo: 16, Hi: 63}}, eps).Execute(h)
			}},
		{"Uniform",
			func(h *kernel.Handle) ([]float64, error) {
				return legacyMeasureLS(h, selection.Total(h.Domain()), eps, solver.Options{})
			},
			func(h *kernel.Handle) ([]float64, error) { return UniformGraph(eps).Execute(h) }},
		{"QuadTree",
			func(h *kernel.Handle) ([]float64, error) {
				return legacyMeasureLS(h, selection.QuadTree(8, 8), eps, solver.Options{})
			},
			func(h *kernel.Handle) ([]float64, error) { return QuadTree(h, 8, 8, eps) }},
		{"UniformGrid",
			func(h *kernel.Handle) ([]float64, error) {
				g := selection.UniformGridCells(20000, eps, 8)
				return legacyMeasureLS(h, selection.UniformGrid(8, 8, g), eps, solver.Options{})
			},
			func(h *kernel.Handle) ([]float64, error) { return UniformGrid(h, 8, 8, 20000, eps) }},
		{"HBStripedKron",
			func(h *kernel.Handle) ([]float64, error) {
				m := selection.StripeKron([]int{4, 8, 2}, 1, selection.HB)
				return legacyMeasureLS(h, m, eps, solver.Options{})
			},
			func(h *kernel.Handle) ([]float64, error) {
				return HBStripedKron(h, []int{4, 8, 2}, 1, eps, solver.Options{})
			}},
	}
	for i, c := range cases {
		assertBitIdentical(t, c.name, 64, eps, uint64(31+i), c.legacy, c.graph)
	}
}

func TestGraphPortBitIdenticalHDMM(t *testing.T) {
	const eps = 2.0
	assertBitIdentical(t, "HDMM", 64, eps, 41,
		func(h *kernel.Handle) ([]float64, error) {
			rng := rand.New(rand.NewPCG(9, 9))
			strategy := selection.HDMMSelect([]mat.Matrix{mat.Prefix(64)}, 16, rng)
			return legacyMeasureLS(h, strategy, eps, solver.Options{})
		},
		func(h *kernel.Handle) ([]float64, error) {
			return HDMM(h, []mat.Matrix{mat.Prefix(64)}, eps, rand.New(rand.NewPCG(9, 9)))
		})
}

func TestGraphPortBitIdenticalMWEM(t *testing.T) {
	rngW := rand.New(rand.NewPCG(5, 5))
	w := workload.RandomRange(128, 40, rngW)
	for i, cfg := range []MWEMConfig{
		{Rounds: 5, Total: 20000},
		{Rounds: 4, Total: 20000, AugmentH2: true},
		{Rounds: 4, Total: 20000, UseNNLS: true},
		{Rounds: 4, Total: 20000, AugmentH2: true, UseNNLS: true},
	} {
		assertBitIdentical(t, "MWEM", 128, 2.0, uint64(51+i),
			func(h *kernel.Handle) ([]float64, error) { return legacyMWEM(h, w, 2.0, cfg) },
			func(h *kernel.Handle) ([]float64, error) { return MWEM(h, w, 2.0, cfg) })
	}
}

func TestGraphPortBitIdenticalAdaptivePlans(t *testing.T) {
	assertBitIdentical(t, "AHP", 64, 1.0, 61,
		func(h *kernel.Handle) ([]float64, error) { return legacyAHP(h, 1.0, AHPConfig{}) },
		func(h *kernel.Handle) ([]float64, error) { return AHP(h, 1.0, AHPConfig{}) })
	assertBitIdentical(t, "DAWA", 64, 1.0, 62,
		func(h *kernel.Handle) ([]float64, error) { return legacyDAWA(h, 1.0, DAWAConfig{}) },
		func(h *kernel.Handle) ([]float64, error) { return DAWA(h, 1.0, DAWAConfig{}) })
	assertBitIdentical(t, "CDF", 64, 1.0, 63,
		func(h *kernel.Handle) ([]float64, error) { return legacyCDFEstimator(h, 1.0, CDFConfig{}) },
		func(h *kernel.Handle) ([]float64, error) { return CDFGraph(1.0, CDFConfig{}).Execute(h) })
}

func TestGraphPortBitIdenticalGridAndStriped(t *testing.T) {
	assertBitIdentical(t, "AdaptiveGrid", 256, 1.0, 71,
		func(h *kernel.Handle) ([]float64, error) {
			return legacyAdaptiveGrid(h, 16, 16, 1.0, AdaptiveGridConfig{NEst: 20000})
		},
		func(h *kernel.Handle) ([]float64, error) {
			return AdaptiveGrid(h, 16, 16, 1.0, AdaptiveGridConfig{NEst: 20000})
		})
	shape := []int{4, 8, 2}
	assertBitIdentical(t, "HBStriped", 64, 1.0, 72,
		func(h *kernel.Handle) ([]float64, error) {
			return legacyHBStriped(h, shape, 1, 1.0, solver.Options{})
		},
		func(h *kernel.Handle) ([]float64, error) {
			return HBStriped(h, shape, 1, 1.0, solver.Options{})
		})
	assertBitIdentical(t, "DAWAStriped", 64, 1.0, 73,
		func(h *kernel.Handle) ([]float64, error) {
			return legacyDAWAStriped(h, shape, 1, 1.0, DAWAStripedConfig{})
		},
		func(h *kernel.Handle) ([]float64, error) {
			return DAWAStriped(h, shape, 1, 1.0, DAWAStripedConfig{})
		})
}

func TestGraphPortBitIdenticalPrivBayes(t *testing.T) {
	cfg := PrivBayesConfig{Shape: []int{4, 4, 4}}
	assertBitIdentical(t, "PrivBayes", 64, 5.0, 81,
		func(h *kernel.Handle) ([]float64, error) { return legacyPrivBayes(h, 5.0, cfg) },
		func(h *kernel.Handle) ([]float64, error) { return PrivBayes(h, 5.0, cfg) })
	assertBitIdentical(t, "PrivBayesLS", 64, 5.0, 82,
		func(h *kernel.Handle) ([]float64, error) { return legacyPrivBayesLS(h, 5.0, cfg) },
		func(h *kernel.Handle) ([]float64, error) { return PrivBayesLS(h, 5.0, cfg) })
}

func TestGraphPortBitIdenticalWorkloadReduction(t *testing.T) {
	n := 64
	x := testData(n, 91)
	w := workload.RandomRange(n, 20, rand.New(rand.NewPCG(3, 3)))
	inner := func(h *kernel.Handle) ([]float64, error) { return Identity(h, 1.0) }

	_, h1 := newVecKernel(x, 10, 91)
	want, p1, err := legacyWithWorkloadReduction(h1, w, rand.New(rand.NewPCG(4, 4)), inner)
	if err != nil {
		t.Fatal(err)
	}
	_, h2 := newVecKernel(x, 10, 91)
	got, p2, err := WithWorkloadReduction(h2, w, rand.New(rand.NewPCG(4, 4)), inner)
	if err != nil {
		t.Fatal(err)
	}
	if p1.K != p2.K {
		t.Fatalf("partition K %d vs %d", p2.K, p1.K)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("answers[%d] = %v, legacy %v", i, got[i], want[i])
		}
	}
}

// TestGraphSignaturesMatchRegistry cross-checks the rendered graph
// signatures against the Fig. 2 registry notation where the two
// correspond exactly.
func TestGraphSignaturesMatchRegistry(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	shape := []int{4, 8, 2}
	cases := []struct {
		registry string // plan name in the registry ("" = no entry)
		want     string
		sig      string
	}{
		{"Identity", "SI LM", IdentityGraph(1).Signature()},
		{"Privelet", "SP LM LS", PriveletGraph(1).Signature()},
		{"Hierarchical (H2)", "SH2 LM LS", H2Graph(1).Signature()},
		{"Hierarchical Opt (HB)", "SHB LM LS", HBGraph(1).Signature()},
		{"Greedy-H", "SG LM LS", GreedyHGraph(nil, 1).Signature()},
		{"Uniform", "ST LM LS", UniformGraph(1).Signature()},
		{"MWEM", "I:( SW LM MW )", MWEMGraph(workload.RandomRange(8, 2, rng), 1, MWEMConfig{}).Signature()},
		{"AHP", "PA TR SI LM LS", AHPGraph(1, AHPConfig{}).Signature()},
		{"DAWA", "PD TR SG LM LS", DAWAGraph(8, 1, DAWAConfig{}).Signature()},
		{"Quadtree", "SQ LM LS", QuadTreeGraph(4, 4, 1).Signature()},
		{"UniformGrid", "SU LM LS", UniformGridGraph(4, 4, 100, 1).Signature()},
		{"HDMM", "SHD LM LS", HDMMGraph([]mat.Matrix{mat.Prefix(8)}, 1, rng).Signature()},
		{"DAWA-Striped", "PS TP[ PD TR SG LM ] LS", DAWAStripedGraph(shape, 1, 1, DAWAStripedConfig{}).Signature()},
		{"HB-Striped", "PS TP[ SHB LM ] LS", HBStripedGraph(shape, 1, 1, solver.Options{}).Signature()},
		{"HB-Striped_kron", "SS LM LS", HBStripedKronGraph(shape, 1, 1, solver.Options{}).Signature()},
		{"PrivBayesLS", "SPB LM LS", PrivBayesLSGraph(1, PrivBayesConfig{Shape: shape}).Signature()},
		{"MWEM variant b", "I:( SW SH2 LM MW )", MWEMGraph(workload.RandomRange(8, 2, rng), 1, MWEMConfig{AugmentH2: true}).Signature()},
		{"MWEM variant c", "I:( SW LM NLS )", MWEMGraph(workload.RandomRange(8, 2, rng), 1, MWEMConfig{UseNNLS: true}).Signature()},
		{"MWEM variant d", "I:( SW SH2 LM NLS )", MWEMGraph(workload.RandomRange(8, 2, rng), 1, MWEMConfig{AugmentH2: true, UseNNLS: true}).Signature()},
		{"", "SU LM PU TP[ SA LM ] LS", AdaptiveGridGraph(4, 4, 1, AdaptiveGridConfig{NEst: 100}).Signature()},
		{"", "PA TR SI LM NLS PRE", CDFGraph(1, CDFConfig{}).Signature()},
		{"", "SPB LM PF", PrivBayesGraph(1, PrivBayesConfig{Shape: shape}).Signature()},
		{"", "PW TR SUB", WorkloadReductionGraph(mat.Identity(8), rng, nil).Signature()},
	}
	for _, c := range cases {
		if c.sig != c.want {
			t.Errorf("%s: signature %q, want %q", c.want, c.sig, c.want)
		}
		if c.registry == "" {
			continue
		}
		i := slices.IndexFunc(Registry, func(p PlanInfo) bool { return p.Name == c.registry })
		if i < 0 {
			t.Errorf("registry entry %q missing", c.registry)
			continue
		}
		if info := Registry[i]; info.Signature != c.want {
			t.Errorf("%s: registry signature %q != graph %q", c.registry, info.Signature, c.want)
		}
	}
}
