package plans_test

import (
	"fmt"

	"repro/internal/core/plans"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/noise"
	"repro/internal/solver"
)

// ExampleCDFGraph shows the paper's §2.1 running example as one
// library call: a private CDF over a protected histogram.
func ExampleCDFGraph() {
	// A tiny salary histogram with two obvious levels.
	x := []float64{100, 100, 100, 100, 0, 0, 0, 0}
	_, h := kernel.InitVector(x, 1e9, noise.NewRand(1))

	cdf, err := plans.CDFGraph(1e8, plans.CDFConfig{}).Execute(h)
	if err != nil {
		panic(err)
	}
	fmt.Printf("CDF at midpoint: %.0f of %.0f\n", cdf[3], cdf[7])
	// Output: CDF at midpoint: 400 of 400
}

// ExampleHB shows the basic select-measure-infer idiom shared by most
// plans.
func ExampleHB() {
	x := []float64{10, 20, 30, 40}
	k, h := kernel.InitVector(x, 1e9, noise.NewRand(2))
	xhat, err := plans.HB(h, 1e8)
	if err != nil {
		panic(err)
	}
	fmt.Printf("estimate of cell 2: %.0f (budget spent: %.0e)\n", xhat[2], k.Consumed())
	// Output: estimate of cell 2: 30 (budget spent: 1e+08)
}

// ExampleWithWorkloadReduction shows the §8 lossless domain reduction
// wrapping an arbitrary plan.
func ExampleWithWorkloadReduction() {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	_, h := kernel.InitVector(x, 1e9, noise.NewRand(3))
	// A workload that only distinguishes the two halves of the domain.
	w := mat.RangeQueries(8, []mat.Range1D{{Lo: 0, Hi: 3}, {Lo: 4, Hi: 7}})
	answers, p, err := plans.WithWorkloadReduction(h, w, noise.NewRand(4),
		func(hr *kernel.Handle) ([]float64, error) {
			return plans.Identity(hr, 1e8)
		})
	if err != nil {
		panic(err)
	}
	fmt.Printf("8 cells reduced to %d; answers: %.0f %.0f\n", p.K, answers[0], answers[1])
	// Output: 8 cells reduced to 2; answers: 10 26
}

// ExampleMWEM shows the iterative plan with the paper's §9.1 improved
// operators enabled.
func ExampleMWEM() {
	x := dataset.Synthetic1D("uniform", 16, 1600, 5)
	_, h := kernel.InitVector(x, 1e9, noise.NewRand(6))
	w := mat.RangeQueries(16, []mat.Range1D{{Lo: 0, Hi: 7}, {Lo: 8, Hi: 15}, {Lo: 4, Hi: 11}})
	xhat, err := plans.MWEM(h, w, 1e8, plans.MWEMConfig{
		Rounds:    3,
		Total:     1600,
		AugmentH2: true,
		UseNNLS:   true,
	})
	if err != nil {
		panic(err)
	}
	var total float64
	for _, v := range xhat {
		total += v
	}
	fmt.Printf("estimated total: %.0f\n", total)
	// Output: estimated total: 1600
}

// ExampleAdvisedGraph shows the plan-level strategy chooser.
func ExampleAdvisedGraph() {
	x := make([]float64, 64)
	for i := range x {
		x[i] = 5
	}
	_, h := kernel.InitVector(x, 1e9, noise.NewRand(7))
	// For a prefix workload over a non-trivial domain the advisor picks
	// a hierarchical strategy, not identity.
	var name string
	_, err := plans.AdvisedGraph(mat.Prefix(64), 1e8, noise.NewRand(8), solver.Options{}, &name).Execute(h)
	if err != nil {
		panic(err)
	}
	fmt.Println("identity chosen:", name == "identity")
	// Output: identity chosen: false
}
