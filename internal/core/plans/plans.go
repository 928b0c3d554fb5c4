// Package plans implements the twenty plan signatures of the paper's
// Fig. 2 — the DPBench algorithms re-expressed as EKTELO operator
// sequences (plans #1–#13) and the new recombinations introduced in §9
// (plans #14–#20) — plus the case-study plans of §9.3.
//
// Every plan is built as an ops.Graph: an inspectable composition of
// typed operators (selection, query, transformation, partition,
// inference) executed deterministically against a kernel handle. The
// XxxGraph constructors expose the graphs — their Signature() renders
// the Fig. 2 notation — and the top-level plan functions are thin
// wrappers that build and execute them, preserving the pre-graph call
// signatures and (under a fixed seed) bit-identical outputs.
//
// Every plan takes a kernel vector handle produced by Vectorize (a
// lineage root): all privacy-relevant interaction flows through the
// protected kernel, so each plan is ε-differentially private by
// construction (paper Theorem 4.1), with ε the sum of the budget shares
// it passes to Private→Public operators.
package plans

import (
	"math/rand/v2"

	"repro/internal/core/ops"
	"repro/internal/core/selection"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/solver"
)

// selectFixed is a selection operator for data-independent strategies
// built from the cursor's public domain size.
func selectFixed(abbr string, build func(n int) mat.Matrix) ops.SelectOp {
	return ops.SelectOp{Name: abbr, Choose: func(env *ops.Env) (mat.Matrix, error) {
		return build(env.H.Domain()), nil
	}}
}

// measureLSGraph is the Query-select → Laplace → Least-squares idiom
// shared by plans #1–#6, #10, #11, #13 (paper §6.2, first translation
// strategy).
func measureLSGraph(name string, sel ops.SelectOp, eps float64, opts solver.Options) *ops.Graph {
	return ops.New(name).Add(sel, ops.Laplace(eps), ops.LS(opts))
}

// IdentityGraph is plan #1 as an operator graph (signature "SI LM").
func IdentityGraph(eps float64) *ops.Graph {
	return ops.New("Identity").Add(
		selectFixed("SI", func(n int) mat.Matrix { return selection.Identity(n) }),
		ops.Laplace(eps),
		ops.OutputY(),
	)
}

// Identity is plan #1 (Dwork et al.): measure every cell with the Laplace
// mechanism. The identity strategy needs no inference.
func Identity(h *kernel.Handle, eps float64) ([]float64, error) {
	return IdentityGraph(eps).Execute(h)
}

// PriveletGraph is plan #2 as an operator graph ("SP LM LS").
func PriveletGraph(eps float64) *ops.Graph {
	return measureLSGraph("Privelet", selectFixed("SP", selection.Privelet), eps, solver.Options{})
}

// H2Graph is plan #3 as an operator graph ("SH2 LM LS").
func H2Graph(eps float64) *ops.Graph {
	return measureLSGraph("Hierarchical (H2)", selectFixed("SH2", selection.H2), eps, solver.Options{})
}

// HBGraph is plan #4 as an operator graph ("SHB LM LS").
func HBGraph(eps float64) *ops.Graph {
	return measureLSGraph("Hierarchical Opt (HB)", selectFixed("SHB", selection.HB), eps, solver.Options{})
}

// HB is plan #4 (Qardaji et al.): optimized-branching hierarchy.
func HB(h *kernel.Handle, eps float64) ([]float64, error) {
	return HBGraph(eps).Execute(h)
}

// GreedyHGraph is plan #5 as an operator graph ("SG LM LS").
func GreedyHGraph(workloadRanges []mat.Range1D, eps float64) *ops.Graph {
	return measureLSGraph("Greedy-H",
		selectFixed("SG", func(n int) mat.Matrix { return selection.GreedyH(n, workloadRanges) }),
		eps, solver.Options{})
}

// UniformGraph is plan #6 as an operator graph ("ST LM LS").
func UniformGraph(eps float64) *ops.Graph {
	return measureLSGraph("Uniform",
		selectFixed("ST", func(n int) mat.Matrix { return selection.Total(n) }),
		eps, solver.Options{})
}

// HDMMGraph is plan #13 as an operator graph ("SHD LM LS"). The
// strategy-optimization randomness comes from rng (public metadata, not
// kernel noise).
func HDMMGraph(workloadFactors []mat.Matrix, eps float64, rng *rand.Rand) *ops.Graph {
	sel := ops.SelectOp{Name: "SHD", Choose: func(*ops.Env) (mat.Matrix, error) {
		return selection.HDMMSelect(workloadFactors, 16, rng), nil
	}}
	return measureLSGraph("HDMM", sel, eps, solver.Options{})
}

// HDMM is plan #13 (McKenna et al.): strategy optimization for a
// Kronecker-structured workload, then Laplace and LS. workloadFactors
// are the per-dimension workload factors; for 1-D workloads pass one.
func HDMM(h *kernel.Handle, workloadFactors []mat.Matrix, eps float64, rng *rand.Rand) ([]float64, error) {
	return HDMMGraph(workloadFactors, eps, rng).Execute(h)
}

// QuadTreeGraph is plan #10 as an operator graph ("SQ LM LS").
func QuadTreeGraph(height, width int, eps float64) *ops.Graph {
	sel := ops.SelectOp{Name: "SQ", Choose: func(*ops.Env) (mat.Matrix, error) {
		return selection.QuadTree(height, width), nil
	}}
	return measureLSGraph("Quadtree", sel, eps, solver.Options{})
}

// QuadTree is plan #10 (Cormode et al.) over an h×w spatial domain.
func QuadTree(hd *kernel.Handle, height, width int, eps float64) ([]float64, error) {
	if height*width != hd.Domain() {
		panic("plans: QuadTree shape does not match domain")
	}
	return QuadTreeGraph(height, width, eps).Execute(hd)
}

// UniformGridGraph is plan #11 as an operator graph ("SU LM LS").
func UniformGridGraph(height, width int, nEst, eps float64) *ops.Graph {
	sel := ops.SelectOp{Name: "SU", Choose: func(*ops.Env) (mat.Matrix, error) {
		side := height
		if width < side {
			side = width
		}
		g := selection.UniformGridCells(nEst, eps, side)
		return selection.UniformGrid(height, width, g), nil
	}}
	return measureLSGraph("UniformGrid", sel, eps, solver.Options{})
}

// UniformGrid is plan #11 (Qardaji et al.) over an h×w spatial domain.
// nEst is the (public or separately estimated) record count that sizes
// the grid.
func UniformGrid(hd *kernel.Handle, height, width int, nEst, eps float64) ([]float64, error) {
	if height*width != hd.Domain() {
		panic("plans: UniformGrid shape does not match domain")
	}
	return UniformGridGraph(height, width, nEst, eps).Execute(hd)
}
