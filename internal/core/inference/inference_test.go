package inference

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/mat"
	"repro/internal/solver"
	"repro/internal/vec"
)

func TestLeastSquaresNoiselessRecovery(t *testing.T) {
	x := []float64{3, 1, 4, 1, 5}
	m := mat.Prefix(5)
	ms := NewMeasurements(5)
	ms.Add(m, mat.Mul(m, x), 1)
	got := ms.LeastSquares(solver.Options{})
	if !vec.AllClose(got, x, 1e-7, 1e-7) {
		t.Fatalf("LS = %v, want %v", got, x)
	}
}

func TestWeightingFavorsLowNoiseBlock(t *testing.T) {
	// Two identity measurements of the same cell with different scales.
	ms := NewMeasurements(1)
	ms.Add(mat.Identity(1), []float64{0}, 10)    // very noisy says 0
	ms.Add(mat.Identity(1), []float64{100}, 0.1) // precise says 100
	got := ms.LeastSquares(solver.Options{})
	if math.Abs(got[0]-100) > 1 {
		t.Fatalf("weighted LS = %v, want ≈100", got[0])
	}
}

func TestUniformNoiseSkipsWeighting(t *testing.T) {
	ms := NewMeasurements(2)
	ms.Add(mat.Identity(2), []float64{1, 2}, 3)
	ms.Add(mat.Total(2), []float64{3}, 3)
	if !ms.uniformNoise() {
		t.Fatal("uniform noise not detected")
	}
}

func TestNNLSNonNegativeEstimates(t *testing.T) {
	ms := NewMeasurements(3)
	ms.Add(mat.Identity(3), []float64{-5, 2, -1}, 1)
	got := ms.NNLS(solver.Options{MaxIter: 500})
	for i, v := range got {
		if v < 0 {
			t.Fatalf("NNLS[%d] = %v", i, v)
		}
	}
	if math.Abs(got[1]-2) > 1e-4 {
		t.Fatalf("NNLS[1] = %v, want 2", got[1])
	}
}

func TestAddExactActsAsConstraint(t *testing.T) {
	// A noisy identity plus an exact total: the estimate's total must
	// match the exact value almost exactly.
	rng := rand.New(rand.NewPCG(31, 37))
	n := 16
	ms := NewMeasurements(n)
	y := make([]float64, n)
	for i := range y {
		y[i] = 10 + rng.Float64()*4 - 2
	}
	ms.Add(mat.Identity(n), y, 1)
	ms.AddExact(mat.Total(n), []float64{160})
	got := ms.LeastSquares(solver.Options{MaxIter: 4000, Tol: 1e-14})
	if math.Abs(vec.Sum(got)-160) > 0.01 {
		t.Fatalf("total = %v, want ≈160", vec.Sum(got))
	}
}

func TestMultWeightsPreservesMass(t *testing.T) {
	n := 8
	ms := NewMeasurements(n)
	truth := []float64{8, 0, 0, 0, 0, 0, 0, 0}
	ms.Add(mat.Identity(n), truth, 1)
	xInit := make([]float64, n)
	vec.Fill(xInit, 1)
	got := ms.MultWeights(xInit, 20)
	if math.Abs(vec.Sum(got)-8) > 1e-6 {
		t.Fatalf("mass = %v", vec.Sum(got))
	}
	if got[0] < 4 {
		t.Fatalf("MW failed to concentrate mass: %v", got)
	}
}

// TestMoreMeasurementsNeverHurt verifies the direction of paper Theorem
// 5.3 empirically: adding an extra measurement block must not increase
// the expected error of a fixed query under least squares.
func TestMoreMeasurementsNeverHurt(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	n := 12
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.IntN(40))
	}
	q := mat.Total(n)
	trueAns := mat.Mul(q, x)[0]
	trials := 120
	var errBase, errMore float64
	for trial := 0; trial < trials; trial++ {
		base := NewMeasurements(n)
		yid := mat.Mul(mat.Identity(n), x)
		for i := range yid {
			yid[i] += laplace(rng, 1)
		}
		base.Add(mat.Identity(n), yid, 1)
		xBase := base.LeastSquares(solver.Options{})
		d := mat.Mul(q, xBase)[0] - trueAns
		errBase += d * d

		more := NewMeasurements(n)
		more.Add(mat.Identity(n), yid, 1)
		yTot := mat.Mul(mat.Total(n), x)
		yTot[0] += laplace(rng, 1)
		more.Add(mat.Total(n), yTot, 1)
		xMore := more.LeastSquares(solver.Options{})
		d = mat.Mul(q, xMore)[0] - trueAns
		errMore += d * d
	}
	if errMore > errBase {
		t.Fatalf("extra measurement hurt: base %v, more %v", errBase/float64(trials), errMore/float64(trials))
	}
}

func laplace(rng *rand.Rand, b float64) float64 {
	u := rng.Float64() - 0.5
	if u >= 0 {
		return -b * math.Log(1-2*u)
	}
	return b * math.Log(1+2*u)
}

func TestMeasurementsValidation(t *testing.T) {
	ms := NewMeasurements(3)
	for _, fn := range []func(){
		func() { ms.Add(mat.Identity(4), make([]float64, 4), 1) },  // wrong domain
		func() { ms.Add(mat.Identity(3), make([]float64, 2), 1) },  // wrong answers
		func() { ms.Add(mat.Identity(3), make([]float64, 3), -1) }, // negative scale
		func() { NewMeasurements(3).Matrix() },                     // empty log
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLenAndDomain(t *testing.T) {
	ms := NewMeasurements(4)
	ms.Add(mat.Identity(4), make([]float64, 4), 1)
	ms.Add(mat.Total(4), make([]float64, 1), 2)
	if ms.Len() != 5 || ms.domain != 4 {
		t.Fatalf("len=%d domain=%d", ms.Len(), ms.domain)
	}
	w := ms.Weights()
	if len(w) != 5 || w[0] != 1 || w[4] != 0.5 {
		t.Fatalf("weights = %v", w)
	}
}

func TestAnswersCopiedNotAliased(t *testing.T) {
	ms := NewMeasurements(2)
	y := []float64{1, 2}
	ms.Add(mat.Identity(2), y, 1)
	y[0] = 99
	if ms.Answers()[0] == 99 {
		t.Fatal("Add aliased the caller's answer slice")
	}
}

func TestMul2MatchesPerEstimate(t *testing.T) {
	ms := NewMeasurements(6)
	ms.Add(mat.Prefix(6), make([]float64, 6), 1)
	ms.Add(mat.Total(6), make([]float64, 1), 2)
	w := ms.Matrix()
	x1 := []float64{3, 1, 4, 1, 5, 9}
	x2 := []float64{-2, 6, 0, 3, -5, 8}
	got := mat.Mul2(w, x1, x2)
	if len(got) != ms.Len()*2 {
		t.Fatalf("answer panel length %d, want %d", len(got), ms.Len()*2)
	}
	w1 := mat.Mul(w, x1)
	w2 := mat.Mul(w, x2)
	for i := range w1 {
		if got[2*i] != w1[i] || got[2*i+1] != w2[i] {
			t.Fatalf("row %d: (%v,%v) != (%v,%v)", i, got[2*i], got[2*i+1], w1[i], w2[i])
		}
	}
}
