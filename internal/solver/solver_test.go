package solver

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/vec"
)

func testRand() *rand.Rand { return rand.New(rand.NewPCG(17, 19)) }

func randDense(rng *rand.Rand, r, c int) *mat.Dense {
	d := mat.NewDense(r, c, nil)
	for i := range d.Data() {
		d.Data()[i] = rng.Float64()*2 - 1
	}
	return d
}

func TestCGLSExactSystem(t *testing.T) {
	// Square nonsingular system: solution must satisfy Ax = y exactly.
	a := mat.DenseFromRows([][]float64{{2, 1}, {1, 3}})
	want := []float64{1, -2}
	y := mat.Mul(a, want)
	res := CGLS(a, y, Options{})
	if !vec.AllClose(res.X, want, 1e-8, 1e-8) {
		t.Fatalf("CGLS = %v, want %v", res.X, want)
	}
	if !res.Converged {
		t.Fatal("CGLS did not converge")
	}
}

func TestCGLSOverdetermined(t *testing.T) {
	rng := testRand()
	a := randDense(rng, 20, 5)
	xTrue := []float64{1, 2, 3, 4, 5}
	y := mat.Mul(a, xTrue)
	res := CGLS(a, y, Options{})
	if !vec.AllClose(res.X, xTrue, 1e-7, 1e-7) {
		t.Fatalf("CGLS = %v, want %v", res.X, xTrue)
	}
}

func TestCGLSMatchesDirect(t *testing.T) {
	rng := testRand()
	for trial := 0; trial < 5; trial++ {
		a := randDense(rng, 12, 6)
		y := make([]float64, 12)
		for i := range y {
			y[i] = rng.Float64()*4 - 2
		}
		iter := CGLS(a, y, Options{}).X
		direct := DirectLS(a, y, nil)
		if !vec.AllClose(iter, direct, 1e-6, 1e-6) {
			t.Fatalf("trial %d: CGLS %v vs direct %v", trial, iter, direct)
		}
	}
}

func TestCGLSMinNormUnderdetermined(t *testing.T) {
	// One total measurement: the min-norm solution spreads uniformly.
	a := mat.Total(4)
	res := CGLS(a, []float64{8}, Options{})
	if !vec.AllClose(res.X, []float64{2, 2, 2, 2}, 1e-9, 1e-9) {
		t.Fatalf("min-norm = %v, want uniform 2s", res.X)
	}
}

func TestCGLSNormalEquationsResidual(t *testing.T) {
	// At the least-squares optimum, Aᵀ(Ax−y) = 0.
	rng := testRand()
	a := randDense(rng, 15, 6)
	y := make([]float64, 15)
	for i := range y {
		y[i] = rng.Float64()
	}
	x := CGLS(a, y, Options{}).X
	r := mat.Mul(a, x)
	for i := range r {
		r[i] -= y[i]
	}
	g := mat.TMul(a, r)
	if vec.Norm2(g) > 1e-7 {
		t.Fatalf("normal-equation residual = %v", vec.Norm2(g))
	}
}

func TestCGLSZeroRHS(t *testing.T) {
	res := CGLS(mat.Identity(3), []float64{0, 0, 0}, Options{})
	if vec.Norm2(res.X) != 0 || !res.Converged {
		t.Fatalf("CGLS(0) = %v", res.X)
	}
}

func TestLeastSquaresWeighted(t *testing.T) {
	// Two inconsistent measurements of the same scalar; weights decide.
	a := mat.DenseFromRows([][]float64{{1}, {1}})
	y := []float64{0, 10}
	// Weight the second measurement much more strongly.
	x := LeastSquares(a, y, []float64{1, 100}, Options{})
	if math.Abs(x[0]-10) > 0.1 {
		t.Fatalf("weighted LS = %v, want ≈10", x[0])
	}
	// Equal weights: average.
	x = LeastSquares(a, y, nil, Options{})
	if math.Abs(x[0]-5) > 1e-8 {
		t.Fatalf("unweighted LS = %v, want 5", x[0])
	}
}

func TestNNLSNonNegative(t *testing.T) {
	rng := testRand()
	a := randDense(rng, 12, 6)
	y := make([]float64, 12)
	for i := range y {
		y[i] = rng.Float64()*2 - 1
	}
	x := NNLS(a, y, nil, Options{MaxIter: 2000})
	for i, v := range x {
		if v < 0 {
			t.Fatalf("NNLS x[%d] = %v < 0", i, v)
		}
	}
}

func TestNNLSRecoversNonNegativeSolution(t *testing.T) {
	// When the unconstrained optimum is non-negative, NNLS matches LS.
	a := mat.DenseFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	xTrue := []float64{2, 3}
	y := mat.Mul(a, xTrue)
	x := NNLS(a, y, nil, Options{MaxIter: 3000, Tol: 1e-12})
	if !vec.AllClose(x, xTrue, 1e-5, 1e-5) {
		t.Fatalf("NNLS = %v, want %v", x, xTrue)
	}
}

func TestNNLSClampsActiveConstraint(t *testing.T) {
	// min (x+2)² s.t. x ≥ 0 has optimum x = 0.
	a := mat.Identity(1)
	x := NNLS(a, []float64{-2}, nil, Options{MaxIter: 500})
	if x[0] != 0 {
		t.Fatalf("NNLS = %v, want 0", x[0])
	}
}

func TestNNLSOptimalityKKT(t *testing.T) {
	// KKT for NNLS: g = Aᵀ(Ax−y) must satisfy g_i ≥ 0 where x_i = 0 and
	// g_i ≈ 0 where x_i > 0.
	rng := testRand()
	a := randDense(rng, 10, 5)
	y := make([]float64, 10)
	for i := range y {
		y[i] = rng.Float64()*2 - 1
	}
	x := NNLS(a, y, nil, Options{MaxIter: 5000, Tol: 1e-12})
	r := mat.Mul(a, x)
	for i := range r {
		r[i] -= y[i]
	}
	g := mat.TMul(a, r)
	for i := range x {
		if x[i] > 1e-6 && math.Abs(g[i]) > 1e-3 {
			t.Errorf("interior KKT violated at %d: x=%v g=%v", i, x[i], g[i])
		}
		if x[i] <= 1e-6 && g[i] < -1e-3 {
			t.Errorf("boundary KKT violated at %d: g=%v", i, g[i])
		}
	}
}

func TestPowerIterL(t *testing.T) {
	// Diagonal matrix: λmax(AᵀA) = max diag².
	a := mat.Diag([]float64{1, -3, 2})
	l := PowerIterL(a, 100, nil)
	if math.Abs(l-9) > 1e-6 {
		t.Fatalf("PowerIterL = %v, want 9", l)
	}
}

func TestMultWeightsImprovesFit(t *testing.T) {
	// True data with a spike; measure identity exactly and check that MW
	// moves the uniform start towards the truth.
	n := 8
	truth := []float64{10, 0, 0, 0, 0, 0, 0, 0}
	a := mat.Identity(n)
	xInit := make([]float64, n)
	vec.Fill(xInit, 10.0/8)
	x := MultWeights(a, truth, xInit, 30, nil)
	before := dist2(xInit, truth)
	after := dist2(x, truth)
	if after >= before {
		t.Fatalf("MW did not improve: before %v after %v", before, after)
	}
	// Mass must be preserved.
	if math.Abs(vec.Sum(x)-10) > 1e-6 {
		t.Fatalf("MW total = %v, want 10", vec.Sum(x))
	}
}

func TestMultWeightsKeepsNonNegativity(t *testing.T) {
	n := 6
	a := mat.Prefix(n)
	y := []float64{1, 2, 3, 4, 5, 6}
	xInit := make([]float64, n)
	vec.Fill(xInit, 1)
	x := MultWeights(a, y, xInit, 10, nil)
	for i, v := range x {
		if v < 0 {
			t.Fatalf("MW produced negative x[%d] = %v", i, v)
		}
	}
}

func TestDirectLSSolvesKnownSystem(t *testing.T) {
	a := mat.DenseFromRows([][]float64{{1, 0}, {0, 2}, {1, 1}})
	xTrue := []float64{3, -1}
	y := mat.Mul(a, xTrue)
	x := DirectLS(a, y, nil)
	if !vec.AllClose(x, xTrue, 1e-8, 1e-8) {
		t.Fatalf("DirectLS = %v, want %v", x, xTrue)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	g := mat.DenseFromRows([][]float64{{0, 1}, {1, 0}})
	if _, err := cholesky(g); err == nil {
		t.Fatal("cholesky accepted an indefinite matrix")
	}
}

// Property: CGLS solution is invariant to scaling both A and y.
func TestCGLSScaleInvarianceQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		a := randDense(rng, 8, 4)
		y := make([]float64, 8)
		for i := range y {
			y[i] = rng.Float64()
		}
		x1 := CGLS(a, y, Options{}).X
		scaled := mat.Scaled(3, a)
		y3 := make([]float64, 8)
		for i := range y {
			y3[i] = 3 * y[i]
		}
		x2 := CGLS(scaled, y3, Options{}).X
		return vec.AllClose(x1, x2, 1e-5, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
