package serve

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/core/inference"
	"repro/internal/core/plans"
	"repro/internal/mat"
	"repro/internal/solver"
)

// foldState is what a dataset's consolidated system holds once it has
// been brought to the end of the log.
type foldState struct {
	groups int
	y, w   []float64
}

func (d *Dataset) foldStateForTest(t *testing.T) foldState {
	t.Helper()
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, y, w := d.cons.System()
	return foldState{groups: d.cons.Groups(), y: y, w: w}
}

func (a foldState) equal(b foldState) bool {
	return a.groups == b.groups && bitsEqual(a.y, b.y) && bitsEqual(a.w, b.w)
}

// solveCold runs the named iterative panel solver from a zero start to
// (near) machine precision on the weighted system (a, y, w).
func solveCold(name string, a mat.Matrix, y, w []float64, k int) []float64 {
	opts := solver.Options{MaxIter: 50000, Tol: 1e-15}
	if name == SolverNNLS {
		return solver.NNLSMulti(a, y, k, w, opts).X
	}
	wy := append([]float64(nil), y...)
	for i, wi := range w {
		for j := 0; j < k; j++ {
			wy[i*k+j] *= wi
		}
	}
	if name == SolverLSMR {
		return solver.LSMRMulti(mat.RowScaled(w, a), wy, k, opts).X
	}
	return solver.CGLSMulti(mat.RowScaled(w, a), wy, k, opts).X
}

// colRelDiff returns max over the k panel columns of ‖a_c − b_c‖/‖b_c‖.
func colRelDiff(a, b []float64, k int) float64 {
	worst := 0.0
	for c := 0; c < k; c++ {
		var num, den float64
		for i := c; i < len(b); i += k {
			num += (a[i] - b[i]) * (a[i] - b[i])
			den += b[i] * b[i]
		}
		worst = math.Max(worst, math.Sqrt(num/den))
	}
	return worst
}

// TestConsolidatedMatchesStackedModel checks the consolidated system
// against the model it replaces, on randomized logs: repeated and
// one-off strategies at mixed ε, a plan-mode commit, and one very noisy
// block that moves the 100× weight cap under the blocks before it.
//
// The solution of the consolidated system equals the solution of the
// full stacked system (every block its own rows, inference.Measurements'
// weights) on all panel columns for each iterative solver; and the fold
// holds the same floats whether it was built commit by commit on the
// primary, in one go from checkpoint + WAL on a restart, or on a
// follower that tails the stream and refreshes at other generations.
func TestConsolidatedMatchesStackedModel(t *testing.T) {
	const domain = 32
	strategies := []string{"identity", "h2", "hb", "total"}
	epsilons := []float64{0.5, 1, 2}
	for _, solverName := range []string{SolverLSMR, SolverCGLS, SolverNNLS} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", solverName, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, 99))
				dir := t.TempDir()
				cfg := Config{BatchWindow: time.Microsecond, StateDir: dir, CheckpointEvery: 5}
				ps := New(cfg)
				pd, err := ps.CreateDatasetWithOptions("m", "piecewise", domain, 5000, seed, 1000, solverName, 0)
				if err != nil {
					t.Fatal(err)
				}
				fs := New(Config{BatchWindow: time.Microsecond})
				defer fs.Close()
				fd, err := fs.CreateFollower("m", domain, 1000, seed, solverName, 0, "http://primary.example")
				if err != nil {
					t.Fatal(err)
				}

				const commits = 14
				capMover, planAt := 5+rng.IntN(4), rng.IntN(commits)
				var from int64
				for c := 0; c < commits; c++ {
					switch c {
					case capMover:
						// 1/scale of 0.002: the cap falls to 0.2, below every
						// earlier identity and total block's weight.
						_, err = pd.Measure("identity", 0.002)
					case planAt:
						_, err = pd.MeasurePlan("DAWA", 1, plans.Params{})
					default:
						_, err = pd.Measure(strategies[rng.IntN(len(strategies))], epsilons[rng.IntN(len(epsilons))])
					}
					if err != nil {
						t.Fatal(err)
					}
					// The primary refreshes at every generation, the follower
					// applies every commit but refreshes at a few.
					if err := pd.Refresh(); err != nil {
						t.Fatal(err)
					}
					data, next, _, _, err := pd.WALTail(from)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := fd.ApplyWALStream(data); err != nil {
						t.Fatal(err)
					}
					from = next
					if rng.IntN(4) == 0 {
						if err := fd.Refresh(); err != nil {
							t.Fatal(err)
						}
					}
				}

				primary := pd.foldStateForTest(t)
				if got := fd.foldStateForTest(t); !got.equal(primary) {
					t.Fatal("follower's fold differs from the primary's")
				}

				// The stacked model, from the primary's log and the noise it drew.
				pd.mu.Lock()
				k := pd.k
				ms := inference.NewMeasurements(domain)
				var stackedY []float64
				for i := range pd.blocks {
					b := &pd.blocks[i]
					ms.Add(b.m, b.y, b.scale)
					stackedY = append(stackedY, b.rhsPanel(k)...)
				}
				consA, consY, consW := pd.cons.System()
				served := append([]float64(nil), pd.panel...)
				blocks := len(pd.blocks)
				pd.mu.Unlock()
				if primary.groups >= blocks || primary.groups < 3 {
					t.Fatalf("%d groups from %d blocks: the log does not exercise the fold", primary.groups, blocks)
				}
				want := solveCold(solverName, ms.Matrix(), stackedY, ms.Weights(), k)
				got := solveCold(solverName, consA, consY, consW, k)
				if d := colRelDiff(got, want, k); d > 1e-9 {
					t.Fatalf("consolidated solution is %.3g from the stacked one (%d blocks, %d groups)", d, blocks, primary.groups)
				}
				// What the dataset served — warm-started, default tolerance —
				// is that solution to solver tolerance (FISTA's step-size rule
				// stops nnls further out than the Krylov solvers' gradient rule).
				servedTol := 1e-6
				if solverName == SolverNNLS {
					servedTol = 1e-4
				}
				if d := colRelDiff(served, want, k); d > servedTol {
					t.Fatalf("served panel is %.3g from the stacked solution", d)
				}

				ps.Close()
				rs := New(cfg)
				defer rs.Close()
				rd, err := rs.CreateDatasetWithOptions("m", "piecewise", domain, 5000, seed, 1000, solverName, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got := rd.foldStateForTest(t); !got.equal(primary) {
					t.Fatal("restarted dataset's fold differs from the one built commit by commit")
				}
			})
		}
	}
}
