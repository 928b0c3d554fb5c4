package plans

import (
	"math/rand/v2"

	"repro/internal/core/ops"
	"repro/internal/core/selection"
	"repro/internal/mat"
	"repro/internal/solver"
)

// This file implements a small plan-level optimizer — the direction the
// paper's §12 sketches (and attributes to Pythia [24]): choosing the
// best data-independent strategy for a given workload before spending
// any privacy budget. Unlike Pythia's learned "black box" selection,
// this is a white-box analytic chooser: it scores each candidate
// strategy with the matrix-mechanism expected-error objective
// ‖A‖₁²·‖WA⁺‖²_F (the same score HDMM-lite minimizes per dimension) and
// runs the winner. Scoring uses only the public workload, so it is
// budget-free.

// StrategyCandidate pairs a name with a strategy constructor.
type StrategyCandidate struct {
	Name  string
	Build func(n int) mat.Matrix
}

// DefaultCandidates is the data-independent strategy menu for 1-D
// workloads.
func DefaultCandidates() []StrategyCandidate {
	return []StrategyCandidate{
		{"identity", func(n int) mat.Matrix { return selection.Identity(n) }},
		{"h2", selection.H2},
		{"hb", selection.HB},
		{"privelet", selection.Privelet},
		{"total+id", func(n int) mat.Matrix { return mat.VStack(mat.Total(n), mat.Identity(n)) }},
	}
}

// ChooseStrategy scores each candidate against the workload and
// returns the best strategy with its name. sampleRows bounds the
// stochastic Frobenius estimate (0 means 24).
func ChooseStrategy(w mat.Matrix, candidates []StrategyCandidate, sampleRows int, rng *rand.Rand) (mat.Matrix, string) {
	if sampleRows <= 0 {
		sampleRows = 24
	}
	_, n := w.Dims()
	bestScore := -1.0
	var best mat.Matrix
	var bestName string
	for _, c := range candidates {
		strategy := c.Build(n)
		score := selection.HDMMScore(w, strategy, sampleRows, rng)
		if bestScore < 0 || score < bestScore {
			bestScore, best, bestName = score, strategy, c.Name
		}
	}
	return best, bestName
}

// AdvisedGraph is the advisor plan as an operator graph ("SAdv LM LS"):
// the selection operator scores the public candidate menu against the
// workload (budget-free) and the winner is measured and inverted.
func AdvisedGraph(w mat.Matrix, eps float64, rng *rand.Rand, opts solver.Options, chosen *string) *ops.Graph {
	sel := ops.SelectOp{Name: "SAdv", Choose: func(*ops.Env) (mat.Matrix, error) {
		strategy, name := ChooseStrategy(w, DefaultCandidates(), 0, rng)
		if chosen != nil {
			*chosen = name
		}
		return strategy, nil
	}}
	return measureLSGraph("Advised", sel, eps, opts)
}
