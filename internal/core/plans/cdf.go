package plans

import (
	"repro/internal/core/ops"
	"repro/internal/core/selection"
	"repro/internal/mat"
	"repro/internal/solver"
)

// CDFConfig parameterizes the paper's §2.1 running example.
type CDFConfig struct {
	// Rho is the budget share for AHP partition selection; 0 means 0.5.
	Rho float64
	// Eta is the AHP threshold multiplier; 0 means 0.35.
	Eta float64
	// Solver controls the NNLS inference.
	Solver solver.Options
}

// CDFGraph is the paper's Algorithm 1 as an operator graph
// ("PA TR SI LM NLS PRE"): AHPpartition (ρ·ε) → V-ReduceByPartition →
// Identity selection → Vector Laplace ((1−ρ)·ε) → NNLS → a public
// Prefix post-transform turning the histogram estimate into an
// empirical CDF.
func CDFGraph(eps float64, cfg CDFConfig) *ops.Graph {
	if cfg.Rho <= 0 || cfg.Rho >= 1 {
		cfg.Rho = 0.5
	}
	if cfg.Eta <= 0 {
		cfg.Eta = 0.35
	}
	if cfg.Solver.MaxIter == 0 {
		cfg.Solver.MaxIter = 600
	}
	eps1, eps2 := cfg.Rho*eps, (1-cfg.Rho)*eps
	return ops.New("CDFEstimator").Add(
		ahpPartition(eps1, cfg.Eta),
		reduceByStoredPartition(),
		selectFixed("SI", func(n int) mat.Matrix { return selection.Identity(n) }),
		ops.Laplace(eps2),
		ops.NNLS(cfg.Solver),
		ops.MetaOp{Name: "PRE", Do: func(env *ops.Env) error {
			env.X = mat.Mul(mat.Prefix(env.Root.Domain()), env.X)
			return nil
		}},
	)
}
