package plans

import (
	"math/rand/v2"
	"testing"

	"repro/internal/mat"
	"repro/internal/solver"
	"repro/internal/vec"
)

func TestChooseStrategyIdentityWorkload(t *testing.T) {
	rng := rand.New(rand.NewPCG(81, 83))
	_, name := ChooseStrategy(mat.Identity(64), DefaultCandidates(), 64, rng)
	if name != "identity" {
		t.Fatalf("identity workload chose %q", name)
	}
}

func TestChooseStrategyPrefixWorkload(t *testing.T) {
	rng := rand.New(rand.NewPCG(85, 87))
	_, name := ChooseStrategy(mat.Prefix(64), DefaultCandidates(), 64, rng)
	// Any of the range-friendly strategies beats identity for prefixes.
	if name == "identity" {
		t.Fatalf("prefix workload chose identity")
	}
}

func TestAdvisedRunsAndIsAccurate(t *testing.T) {
	n := 64
	x := testData(n, 21)
	rng := rand.New(rand.NewPCG(89, 91))
	w := mat.Prefix(n)
	_, h := newVecKernel(x, 1e7, 93)
	var name string
	xhat, err := AdvisedGraph(w, 1e7, rng, solver.Options{}, &name).Execute(h)
	if err != nil {
		t.Fatal(err)
	}
	if name == "" {
		t.Fatal("no strategy name")
	}
	if !vec.AllClose(xhat, x, 1e-3, 1e-2) {
		t.Fatalf("advised plan inaccurate at huge ε (strategy %q)", name)
	}
}

func TestAdvisedBeatsWorstChoiceOnAverage(t *testing.T) {
	// For a prefix workload at moderate ε, the advised strategy should
	// beat plain identity on average (the matrix-mechanism prediction).
	n := 128
	x := testData(n, 22)
	w := mat.Prefix(n)
	rng := rand.New(rand.NewPCG(95, 97))
	var advErr, idErr float64
	const trials = 6
	for s := uint64(0); s < trials; s++ {
		_, h1 := newVecKernel(x, 1.0, 300+s)
		xa, err := AdvisedGraph(w, 1.0, rng, solver.Options{}, nil).Execute(h1)
		if err != nil {
			t.Fatal(err)
		}
		advErr += l2err(w, xa, x)
		_, h2 := newVecKernel(x, 1.0, 400+s)
		xi, err := Identity(h2, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		idErr += l2err(w, xi, x)
	}
	if advErr >= idErr {
		t.Fatalf("advised %v not better than identity %v on prefix workload", advErr/trials, idErr/trials)
	}
}
