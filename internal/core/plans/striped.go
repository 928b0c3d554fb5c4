package plans

import (
	"repro/internal/core/ops"
	"repro/internal/core/partition"
	"repro/internal/core/selection"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/solver"
)

// This file holds the high-dimensional "striped" plans of paper §9.2:
// HB-Striped (plan #15), DAWA-Striped (plan #14) and HB-Striped_kron
// (plan #16). The striped plans split the domain into 1-D stripes along
// one attribute — one stripe per combination of the remaining attributes
// — run a 1-D subplan on every stripe at full ε (parallel composition
// over the disjoint split), and close with one global least-squares
// inference over all measurements.

// stripeSplit is the PS partition-selection operator: split the domain
// into 1-D stripes along dim.
func stripeSplit(shape []int, dim int) ops.PartitionOp {
	return ops.PartitionOp{Name: "PS", Split: func(env *ops.Env) error {
		p := partition.Stripe(shape, dim)
		env.Subs = env.H.SplitByPartition(p.Groups, p.K)
		return nil
	}}
}

// HBStripedGraph is plan #15 as an operator graph ("PS TP[ SHB LM ] LS").
func HBStripedGraph(shape []int, dim int, eps float64, opts solver.Options) *ops.Graph {
	strategy := selection.HB(shape[dim]) // data-independent: shared by all stripes
	body := ops.New("hbstriped.stripe").Add(
		ops.SelectOp{Name: "SHB", Choose: func(*ops.Env) (mat.Matrix, error) { return strategy, nil }},
		ops.Laplace(eps),
	)
	return ops.New("HB-Striped").Add(
		stripeSplit(shape, dim),
		ops.ForEachOp{Body: body},
		ops.LS(opts),
	)
}

// HBStriped is plan #15: PS TP[SHB LM] LS.
func HBStriped(h *kernel.Handle, shape []int, dim int, eps float64, opts solver.Options) ([]float64, error) {
	return HBStripedGraph(shape, dim, eps, opts).Execute(h)
}

// DAWAStripedConfig parameterizes plan #14.
type DAWAStripedConfig struct {
	// Rho is each stripe subplan's stage-1 budget fraction; 0 means 0.25.
	Rho float64
	// MaxBucket caps the per-stripe partition DP; 0 means 1024.
	MaxBucket int
	// StripeWorkload provides the 1-D ranges GreedyH adapts to on each
	// stripe (e.g. all prefixes for CDF-style workloads); nil means the
	// identity workload.
	StripeWorkload []mat.Range1D
	// Solver controls the closing least-squares inference.
	Solver solver.Options
}

// DAWAStripedGraph is plan #14 as an operator graph
// ("PS TP[ PD TR SG LM ] LS"). Unlike HB-Striped the subplan is
// data-dependent, so each stripe may select different measurements.
func DAWAStripedGraph(shape []int, dim int, eps float64, cfg DAWAStripedConfig) *ops.Graph {
	if cfg.Rho <= 0 || cfg.Rho >= 1 {
		cfg.Rho = 0.25
	}
	if cfg.MaxBucket <= 0 {
		cfg.MaxBucket = 1024
	}
	eps1, eps2 := cfg.Rho*eps, (1-cfg.Rho)*eps
	stripeWL := cfg.StripeWorkload
	if stripeWL == nil {
		stripeWL = identityRanges(shape[dim])
	}
	body := ops.New("dawastriped.stripe").Add(
		dawaPartition(eps1, eps2, cfg.MaxBucket),
		reduceByStoredPartition(),
		dawaGreedyH(stripeWL),
		ops.Laplace(eps2),
	)
	return ops.New("DAWA-Striped").Add(
		stripeSplit(shape, dim),
		ops.ForEachOp{Body: body},
		ops.LS(cfg.Solver),
	)
}

// DAWAStriped is plan #14: PS TP[PD TR SG LM] LS.
func DAWAStriped(h *kernel.Handle, shape []int, dim int, eps float64, cfg DAWAStripedConfig) ([]float64, error) {
	return DAWAStripedGraph(shape, dim, eps, cfg).Execute(h)
}

// HBStripedKronGraph is plan #16 as an operator graph ("SS LM LS"): the
// non-iterative alternative to HB-Striped that expresses the identical
// global measurement set as a single Kronecker product (HB on the
// striped dimension, Identity elsewhere) and measures it in one Laplace
// call.
func HBStripedKronGraph(shape []int, dim int, eps float64, opts solver.Options) *ops.Graph {
	sel := ops.SelectOp{Name: "SS", Choose: func(*ops.Env) (mat.Matrix, error) {
		return selection.StripeKron(shape, dim, selection.HB), nil
	}}
	return measureLSGraph("HB-Striped_kron", sel, eps, opts)
}

// HBStripedKron is plan #16: SS LM LS.
func HBStripedKron(h *kernel.Handle, shape []int, dim int, eps float64, opts solver.Options) ([]float64, error) {
	return HBStripedKronGraph(shape, dim, eps, opts).Execute(h)
}
