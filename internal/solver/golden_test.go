package solver

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/mat"
	"repro/internal/noise"
)

// scalarGoldenPath holds the output of the single-right-hand-side
// solvers (CGLS, LSMR, NNLS, LeastSquares) on scalarGoldenCases, as
// produced by the separate scalar recurrences these functions had before
// they became k = 1 calls of the panel bodies. The file is frozen: there
// is deliberately no flag to rewrite it from the code under test.
const scalarGoldenPath = "testdata/scalar_golden.json"

// scalarGolden is one frozen solve. X holds math.Float64bits in hex.
// NNLS and LeastSquares return only the estimate, so Result is false
// for them and Iterations/Converged are not compared.
type scalarGolden struct {
	Name       string   `json:"name"`
	X          []string `json:"x"`
	Result     bool     `json:"result"`
	Iterations int      `json:"iterations"`
	Converged  bool     `json:"converged"`
}

type scalarGoldenCase struct {
	name string
	run  func() scalarGolden
}

// goldenMatrices are the shapes the goldens cover, each at most 64
// columns: serial Dense and CSR, the hierarchical tree, range queries, a
// Kronecker product, a VStack, the Haar wavelet, a row-scaled dense and
// an underdetermined dense system.
func goldenMatrices() []struct {
	name string
	m    mat.Matrix
} {
	rng := rand.New(rand.NewPCG(2024, 45))
	dense := func(r, c int) *mat.Dense {
		d := make([]float64, r*c)
		for i := range d {
			d[i] = rng.Float64()*2 - 1
		}
		return mat.NewDense(r, c, d)
	}
	var tri []mat.Triplet
	for i := 0; i < 50; i++ {
		for q := 0; q < 3; q++ {
			tri = append(tri, mat.Triplet{Row: i, Col: rng.IntN(23), Val: rng.Float64()*4 - 2})
		}
	}
	rowW := make([]float64, 33)
	for i := range rowW {
		rowW[i] = 0.5 + rng.Float64()
	}
	return []struct {
		name string
		m    mat.Matrix
	}{
		{"dense", dense(41, 17)},
		{"csr", mat.NewSparse(50, 23, tri)},
		{"tree", TreeMatrix(64, 2)},
		{"ranges", mat.RangeQueries(48, mat.HierarchicalRanges(48, 4))},
		{"kron", mat.Kron(mat.Prefix(6), mat.Prefix(8))},
		{"vstack", mat.VStack(mat.Identity(32), mat.Total(32), mat.Prefix(32))},
		{"wavelet", mat.Wavelet(32)},
		{"rowscaled", mat.RowScaled(rowW, dense(33, 15))},
		{"under", dense(12, 30)},
	}
}

// scalarGoldenCases runs every solver under the option sets the goldens
// pin: cold, warm (X0), an absolute TolFloor (one that stops the solve
// early and one the start point already meets), damping (LSMR), row
// weights (LeastSquares, NNLS), a workspace, and a MaxIter truncation
// that leaves Converged false.
func scalarGoldenCases() []scalarGoldenCase {
	var cases []scalarGoldenCase
	full := func(r Result) scalarGolden {
		return scalarGolden{X: goldenHex(r.X), Result: true, Iterations: r.Iterations, Converged: r.Converged}
	}
	xOnly := func(x []float64) scalarGolden { return scalarGolden{X: goldenHex(x)} }
	for mi, gm := range goldenMatrices() {
		m := gm.m
		rows, cols := m.Dims()
		y := make([]float64, rows)
		noise.LaplaceVec(noise.NewRand(uint64(300+mi)), y, 2)
		rng := rand.New(rand.NewPCG(uint64(400+mi), 7))
		x0 := make([]float64, cols)
		for i := range x0 {
			x0[i] = rng.Float64()*6 - 3
		}
		w := make([]float64, rows)
		for i := range w {
			w[i] = 0.25 + 1.5*rng.Float64()
		}
		// A floor between the cold target and the start gradient, so it
		// stops the solve early without stopping it at once.
		floor := []float64{1e-4 * goldenGradNorm(m, y)}
		// A floor above the start gradient: the start point stands.
		met := []float64{2 * goldenGradNorm(m, y)}
		opts := map[string]Options{
			"cold":     {MaxIter: 500, Tol: 1e-10},
			"x0":       {MaxIter: 500, Tol: 1e-10, X0: x0},
			"tolfloor": {MaxIter: 500, Tol: 1e-10, TolFloor: floor},
			"floormet": {MaxIter: 500, Tol: 1e-10, TolFloor: met},
			"work":     {MaxIter: 500, Tol: 1e-10, Work: mat.NewWorkspace()},
			"maxiter":  {MaxIter: 3, Tol: 1e-12},
		}
		add := func(name string, run func() scalarGolden) {
			cases = append(cases, scalarGoldenCase{name: gm.name + "/" + name, run: run})
		}
		for _, on := range []string{"cold", "x0", "tolfloor", "floormet", "work", "maxiter"} {
			o := opts[on]
			add("cgls/"+on, func() scalarGolden { return full(CGLS(m, y, o)) })
			add("lsmr/"+on, func() scalarGolden { return full(LSMR(m, y, o)) })
		}
		add("lsmr/damp", func() scalarGolden { return full(LSMR(m, y, Options{MaxIter: 500, Tol: 1e-10, Damp: 0.5})) })
		add("lsmr/damp+x0", func() scalarGolden {
			return full(LSMR(m, y, Options{MaxIter: 500, Tol: 1e-10, Damp: 0.5, X0: x0}))
		})
		add("leastsquares", func() scalarGolden { return xOnly(LeastSquares(m, y, nil, opts["cold"])) })
		add("leastsquares/weights", func() scalarGolden { return xOnly(LeastSquares(m, y, w, opts["cold"])) })
		add("nnls/cold", func() scalarGolden { return xOnly(NNLS(m, y, nil, Options{MaxIter: 300, Tol: 1e-9})) })
		add("nnls/weights", func() scalarGolden { return xOnly(NNLS(m, y, w, Options{MaxIter: 300, Tol: 1e-9})) })
		add("nnls/x0", func() scalarGolden {
			return xOnly(NNLS(m, y, nil, Options{MaxIter: 300, Tol: 1e-9, X0: x0, Work: mat.NewWorkspace()}))
		})
		add("nnls/maxiter", func() scalarGolden { return xOnly(NNLS(m, y, w, Options{MaxIter: 5})) })
	}
	return cases
}

// goldenGradNorm returns ‖Aᵀy‖₂.
func goldenGradNorm(m mat.Matrix, y []float64) float64 {
	_, cols := m.Dims()
	g := make([]float64, cols)
	m.TMatVec(g, y)
	var s float64
	for _, v := range g {
		s += v * v
	}
	return math.Sqrt(s)
}

func goldenHex(x []float64) []string {
	out := make([]string, len(x))
	for i, v := range x {
		out[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return out
}

// runScalarGoldens evaluates every case on the serial kernels.
func runScalarGoldens() []scalarGolden {
	defer mat.SetParallelism(0)
	mat.SetParallelism(1)
	var out []scalarGolden
	for _, c := range scalarGoldenCases() {
		g := c.run()
		g.Name = c.name
		out = append(out, g)
	}
	return out
}

// TestScalarGoldens pins CGLS, LSMR, NNLS and LeastSquares bit for bit
// (estimate, iteration count and convergence flag) to the frozen output
// of the scalar recurrences they replaced.
func TestScalarGoldens(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(scalarGoldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var want []scalarGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := runScalarGoldens()
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name {
			t.Fatalf("case %d is %q, golden file has %q", i, g.Name, w.Name)
		}
		if err := compareGolden(g, w); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func compareGolden(g, w scalarGolden) error {
	if g.Result != w.Result {
		return fmt.Errorf("result kind %v, golden %v", g.Result, w.Result)
	}
	if g.Result && (g.Iterations != w.Iterations || g.Converged != w.Converged) {
		return fmt.Errorf("iterations %d converged %v, golden %d %v", g.Iterations, g.Converged, w.Iterations, w.Converged)
	}
	if len(g.X) != len(w.X) {
		return fmt.Errorf("len(X) %d, golden %d", len(g.X), len(w.X))
	}
	for i := range g.X {
		if g.X[i] != w.X[i] {
			return fmt.Errorf("X[%d] bits %s, golden %s", i, g.X[i], w.X[i])
		}
	}
	return nil
}
