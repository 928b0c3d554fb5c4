package nbayes

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/noise"
	"repro/internal/vec"
)

func smallShape() []int { return []int{2, 3, 4} }

func syntheticCredit(rows int, seed uint64) *dataset.Table {
	schema := dataset.Schema{
		{Name: "y", Size: 2},
		{Name: "x1", Size: 3},
		{Name: "x2", Size: 4},
	}
	tbl := dataset.New(schema)
	rng := noise.NewRand(seed)
	for i := 0; i < rows; i++ {
		y := 0
		if rng.Float64() < 0.4 {
			y = 1
		}
		var x1, x2 int
		if y == 1 {
			x1 = 2 - min(2, int(rng.Float64()*1.4)) // skew high
			x2 = 3 - int(rng.Float64()*2)
		} else {
			x1 = min(2, int(rng.Float64()*1.4))
			x2 = int(rng.Float64() * 2)
		}
		tbl.Append(y, x1, x2)
	}
	return tbl
}

func TestAUCKnownValues(t *testing.T) {
	// Perfect separation.
	if got := AUC([]float64{1, 2, 3, 4}, []int{0, 0, 1, 1}); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
	// Perfectly wrong.
	if got := AUC([]float64{4, 3, 2, 1}, []int{0, 0, 1, 1}); got != 0 {
		t.Fatalf("inverted AUC = %v", got)
	}
	// All ties = 0.5.
	if got := AUC([]float64{1, 1, 1, 1}, []int{0, 1, 0, 1}); got != 0.5 {
		t.Fatalf("tied AUC = %v", got)
	}
	// Degenerate labels.
	if got := AUC([]float64{1, 2}, []int{1, 1}); got != 0.5 {
		t.Fatalf("single-class AUC = %v", got)
	}
}

func TestAUCPartialOrder(t *testing.T) {
	got := AUC([]float64{1, 3, 2, 4}, []int{0, 1, 0, 1})
	// Positives {3,4}, negatives {1,2}: pairs won 4/4 minus (3>2? yes,
	// 3>1 yes, 4>both) => AUC = 1. Swap one:
	if got != 1 {
		t.Fatalf("AUC = %v", got)
	}
	got = AUC([]float64{3, 1, 2, 4}, []int{0, 1, 0, 1})
	// positives {1,4}, negatives {3,2}: wins: 4>3,4>2 (2), 1>none => 2/4.
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("AUC = %v, want 0.5", got)
	}
}

func TestFitScoresSeparateClasses(t *testing.T) {
	shape := smallShape()
	label := []float64{100, 100}
	joint1 := []float64{90, 5, 5, 5, 5, 90}
	joint2 := []float64{25, 25, 25, 25, 25, 25, 25, 25}
	m := Fit(shape, label, [][]float64{joint1, joint2})
	if m.Score([]int{2, 0}) <= m.Score([]int{0, 0}) {
		t.Fatal("score does not increase toward the label-1 feature value")
	}
}

func TestFitClampsNegativeCounts(t *testing.T) {
	shape := smallShape()
	label := []float64{-5, 10}
	joint1 := []float64{-1, -2, -3, 1, 2, 3}
	joint2 := make([]float64, 8)
	m := Fit(shape, label, [][]float64{joint1, joint2})
	s := m.Score([]int{0, 0})
	if math.IsNaN(s) || math.IsInf(s, 0) {
		t.Fatalf("score = %v with negative noisy counts", s)
	}
}

func TestHistWorkloadShape(t *testing.T) {
	shape := smallShape()
	w := HistWorkload(shape)
	r, c := w.Dims()
	if c != 24 {
		t.Fatalf("cols = %d", c)
	}
	// Rows: 2 (label) + 2*3 + 2*4 = 16.
	if r != 16 {
		t.Fatalf("rows = %d, want 16", r)
	}
}

func TestHistWorkloadSemantics(t *testing.T) {
	shape := smallShape()
	tbl := syntheticCredit(500, 3)
	x := tbl.Vectorize()
	w := HistWorkload(shape)
	label, joints := SplitHists(shape, mat.Mul(w, x))
	// Direct histograms from the table must match.
	wantLabel := tbl.Select("y").Vectorize()
	if !vec.AllClose(label, wantLabel, 1e-9, 1e-9) {
		t.Fatalf("label hist = %v, want %v", label, wantLabel)
	}
	// Joint (y, x1): brute force.
	want := make([]float64, 6)
	for i := 0; i < tbl.NumRows(); i++ {
		row := tbl.Row(i)
		want[row[0]*3+row[1]]++
	}
	if !vec.AllClose(joints[0], want, 1e-9, 1e-9) {
		t.Fatalf("joint = %v, want %v", joints[0], want)
	}
}

func TestSplitHistsValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong answer length")
		}
	}()
	SplitHists(smallShape(), make([]float64, 5))
}

func TestPlansAccurateAtHighEps(t *testing.T) {
	shape := smallShape()
	tbl := syntheticCredit(2000, 5)
	x := tbl.Vectorize()
	truthW := HistWorkload(shape)
	wantLabel, wantJoints := SplitHists(shape, mat.Mul(truthW, x))

	plansUnderTest := map[string]Plan{
		"workload":   PlanWorkload,
		"workloadLS": PlanWorkloadLS,
		"identity":   PlanIdentity,
		"selectLS":   PlanSelectLS,
	}
	for name, plan := range plansUnderTest {
		_, h := kernel.InitVector(x, 1e8, noise.NewRand(7))
		label, joints, err := plan(h, shape, 1e7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !vec.AllClose(label, wantLabel, 1e-2, 1) {
			t.Errorf("%s: label hist = %v, want %v", name, label, wantLabel)
		}
		if !vec.AllClose(joints[0], wantJoints[0], 1e-2, 1) {
			t.Errorf("%s: joint hist off: %v vs %v", name, joints[0], wantJoints[0])
		}
	}
}

func TestPlanBudgets(t *testing.T) {
	shape := smallShape()
	x := syntheticCredit(500, 9).Vectorize()
	for name, plan := range map[string]Plan{
		"workload":   PlanWorkload,
		"workloadLS": PlanWorkloadLS,
		"identity":   PlanIdentity,
		"selectLS":   PlanSelectLS,
	} {
		k, h := kernel.InitVector(x, 1.0, noise.NewRand(11))
		if _, _, err := plan(h, shape, 1.0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k.Consumed() > 1.0+1e-9 {
			t.Errorf("%s overspent: %v", name, k.Consumed())
		}
	}
}

func TestEvaluateNonPrivateBeatsRandom(t *testing.T) {
	tbl := syntheticCredit(3000, 13)
	aucs := Evaluate(tbl, nil, 0, 3, 1, 1)
	mean := vec.Sum(aucs) / float64(len(aucs))
	if mean < 0.7 {
		t.Fatalf("unperturbed AUC = %v, signal too weak", mean)
	}
}

func TestEvaluatePrivateDegradesGracefully(t *testing.T) {
	tbl := syntheticCredit(3000, 17)
	clean := Evaluate(tbl, nil, 0, 3, 1, 2)
	noisy := Evaluate(tbl, PlanWorkloadLS, 1.0, 3, 1, 2)
	cleanMean := vec.Sum(clean) / float64(len(clean))
	noisyMean := vec.Sum(noisy) / float64(len(noisy))
	// At ε=1 on 3k rows the private classifier should be close to clean.
	if noisyMean < cleanMean-0.15 {
		t.Fatalf("private AUC %v far below clean %v", noisyMean, cleanMean)
	}
	// At ε=1e-5 the model is fit from pure noise; averaged over folds and
	// repeats the AUC must collapse towards 0.5 (a single noise draw can
	// still accidentally align with the signal, hence the averaging).
	drowned := Evaluate(tbl, PlanWorkloadLS, 1e-5, 3, 8, 3)
	drownedMean := vec.Sum(drowned) / float64(len(drowned))
	if math.Abs(drownedMean-0.5) > 0.12 {
		t.Fatalf("drowned AUC = %v, want ≈0.5", drownedMean)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
