package repro

// End-to-end integration tests: the README/§2.1 pipeline from a raw
// table through table transforms, partition selection, measurement and
// inference — the full stack that the per-package unit tests cover
// piecewise.

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core/inference"
	"repro/internal/core/partition"
	"repro/internal/core/plans"
	"repro/internal/core/selection"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/noise"
	"repro/internal/solver"
	"repro/internal/vec"
)

func TestQuickstartPipeline(t *testing.T) {
	const eps = 1.0
	table := dataset.Census(42)
	k, root := kernel.InitTable(table, eps, noise.NewRand(7))

	filtered := root.Where(dataset.Predicate{dataset.Eq("gender", 0), dataset.Eq("age", 1)})
	income := filtered.Select("income")
	x := income.Vectorize()
	n := x.Domain()
	if n != 5000 {
		t.Fatalf("income domain = %d", n)
	}

	noisy, _, err := x.VectorLaplace(selection.Identity(n), eps/2)
	if err != nil {
		t.Fatal(err)
	}
	p := partition.AHPCluster(noisy, 0.35, eps/2)
	if p.K <= 0 || p.K >= n {
		t.Fatalf("AHP groups = %d", p.K)
	}
	reduced := x.ReduceByPartition(p.Matrix())
	strategy := selection.Identity(p.K)
	y, scale, err := reduced.VectorLaplace(strategy, eps/2)
	if err != nil {
		t.Fatal(err)
	}
	ms := inference.NewMeasurements(n)
	ms.Add(reduced.MapTo(x, strategy), y, scale)
	xhat := ms.NNLS(solver.Options{MaxIter: 600})
	cdf := mat.Mul(mat.Prefix(n), xhat)

	// Privacy: exactly ε consumed, and the budget is then exhausted.
	if math.Abs(k.Consumed()-eps) > 1e-9 {
		t.Fatalf("consumed = %v, want %v", k.Consumed(), eps)
	}
	if _, _, err := x.VectorLaplace(selection.Identity(n), 0.01); !errors.Is(err, kernel.ErrBudgetExceeded) {
		t.Fatal("budget not exhausted after the plan")
	}

	// Utility sanity: the CDF is non-decreasing and its total is within
	// noise of the true sub-population size.
	trueCount := float64(table.Where(dataset.Predicate{dataset.Eq("gender", 0), dataset.Eq("age", 1)}).NumRows())
	for i := 1; i < n; i++ {
		if cdf[i] < cdf[i-1]-1e-6 {
			t.Fatalf("CDF decreases at %d", i)
		}
	}
	if math.Abs(cdf[n-1]-trueCount) > 0.3*trueCount {
		t.Fatalf("CDF total %v far from true count %v", cdf[n-1], trueCount)
	}
}

func TestRegistryPlansAreRunnable(t *testing.T) {
	// Every 1-D plan named in the Fig. 2 registry must be exercisable
	// through the library against a real kernel.
	n := 64
	x := dataset.Synthetic1D("gauss-mix", n, 10000, 3)
	total := vec.Sum(x)
	rng := noise.NewRand(17)
	w := func() *mat.RangeQueriesMat {
		ranges := make([]mat.Range1D, 20)
		for i := range ranges {
			a, b := rng.IntN(n), rng.IntN(n)
			if a > b {
				a, b = b, a
			}
			ranges[i] = mat.Range1D{Lo: a, Hi: b}
		}
		return mat.RangeQueries(n, ranges)
	}()

	runners := map[string]func(h *kernel.Handle) ([]float64, error){
		"Identity":              func(h *kernel.Handle) ([]float64, error) { return plans.Identity(h, 1) },
		"Privelet":              func(h *kernel.Handle) ([]float64, error) { return plans.PriveletGraph(1).Execute(h) },
		"Hierarchical (H2)":     func(h *kernel.Handle) ([]float64, error) { return plans.H2Graph(1).Execute(h) },
		"Hierarchical Opt (HB)": func(h *kernel.Handle) ([]float64, error) { return plans.HB(h, 1) },
		"Greedy-H": func(h *kernel.Handle) ([]float64, error) {
			return plans.GreedyHGraph(w.Ranges1D(), 1).Execute(h)
		},
		"Uniform": func(h *kernel.Handle) ([]float64, error) { return plans.UniformGraph(1).Execute(h) },
		"MWEM": func(h *kernel.Handle) ([]float64, error) {
			return plans.MWEM(h, w, 1, plans.MWEMConfig{Rounds: 3, Total: total})
		},
		"AHP":  func(h *kernel.Handle) ([]float64, error) { return plans.AHP(h, 1, plans.AHPConfig{}) },
		"DAWA": func(h *kernel.Handle) ([]float64, error) { return plans.DAWA(h, 1, plans.DAWAConfig{}) },
		"HDMM": func(h *kernel.Handle) ([]float64, error) {
			return plans.HDMM(h, []mat.Matrix{mat.Prefix(n)}, 1, noise.NewRand(5))
		},
		"MWEM variant b": func(h *kernel.Handle) ([]float64, error) {
			return plans.MWEM(h, w, 1, plans.MWEMConfig{Rounds: 3, Total: total, AugmentH2: true})
		},
		"MWEM variant c": func(h *kernel.Handle) ([]float64, error) {
			return plans.MWEM(h, w, 1, plans.MWEMConfig{Rounds: 3, Total: total, UseNNLS: true})
		},
		"MWEM variant d": func(h *kernel.Handle) ([]float64, error) {
			return plans.MWEM(h, w, 1, plans.MWEMConfig{Rounds: 3, Total: total, AugmentH2: true, UseNNLS: true})
		},
	}
	for name, run := range runners {
		if !slices.Contains(plans.PlanNames(), name) {
			t.Errorf("%s not in the Fig. 2 registry", name)
			continue
		}
		k, h := kernel.InitVector(x, 1, noise.NewRand(23))
		got, err := run(h)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(got) != n {
			t.Errorf("%s: output length %d", name, len(got))
		}
		if k.Consumed() > 1+1e-9 {
			t.Errorf("%s overspent: %v", name, k.Consumed())
		}
	}
}

func TestEndToEndWorkloadReductionPipeline(t *testing.T) {
	// Table -> vectorize -> workload reduction -> plan -> answers, all
	// through the kernel, with correct budget accounting.
	tbl := dataset.CreditDefault(5)
	k, root := kernel.InitTable(tbl, 1.0, noise.NewRand(29))
	v := root.Select("age").Vectorize()
	n := v.Domain()
	rng := noise.NewRand(31)
	ranges := make([]mat.Range1D, 10)
	for i := range ranges {
		lo := rng.IntN(n - 4)
		ranges[i] = mat.Range1D{Lo: lo, Hi: lo + 3}
	}
	w := mat.RangeQueries(n, ranges)
	answers, p, err := plans.WithWorkloadReduction(v, w, noise.NewRand(37), func(hr *kernel.Handle) ([]float64, error) {
		return plans.HB(hr, 1.0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.K >= n {
		t.Fatal("no reduction achieved")
	}
	if len(answers) != 10 {
		t.Fatalf("answers = %d", len(answers))
	}
	if math.Abs(k.Consumed()-1.0) > 1e-9 {
		t.Fatalf("consumed = %v", k.Consumed())
	}
}
