package experiments

import (
	"time"

	"repro/internal/mat"
	"repro/internal/noise"
	"repro/internal/solver"
)

// Fig5Config parameterizes the inference-scalability experiment (paper
// Fig. 5): binary-hierarchy measurements, least squares and NNLS across
// representations and solution strategies, plus the specialized
// tree-based method of Hay et al.
type Fig5Config struct {
	Domains   []int // powers of two
	MaxDirect int   // largest domain for dense direct solve
	MaxDense  int   // largest domain for dense iterative solves
	MaxSparse int   // nnz budget for explicit sparse
	Seed      uint64
	Solver    solver.Options
}

// QuickFig5 keeps the sweep small for tests.
func QuickFig5() Fig5Config {
	return Fig5Config{Domains: []int{256, 1024}, MaxDirect: 512, MaxDense: 1024,
		MaxSparse: 1 << 22, Seed: 41, Solver: solver.Options{MaxIter: 100, Tol: 1e-8}}
}

// FullFig5 sweeps to multi-million-cell domains in the implicit
// representation, mirroring the paper's 1e3..1e9 axis within laptop
// memory.
func FullFig5() Fig5Config {
	return Fig5Config{Domains: []int{1 << 10, 1 << 14, 1 << 18, 1 << 22}, MaxDirect: 1024,
		MaxDense: 4096, MaxSparse: 1 << 26, Seed: 41, Solver: solver.Options{MaxIter: 150, Tol: 1e-8}}
}

// Fig5Row is one (method, domain) timing.
type Fig5Row struct {
	Method  string
	Domain  int
	Seconds float64
	Skipped string
}

// Fig5Methods lists the methods in the paper's legend order.
var Fig5Methods = []string{
	"LS Dense+Direct",
	"LS Dense+Iterative",
	"LS Sparse+Iterative",
	"LS Implicit+Iterative",
	"NNLS Dense+Iterative",
	"NNLS Sparse+Iterative",
	"NNLS Implicit+Iterative",
	"LS Tree-based",
}

// Fig5 times least-squares/NNLS inference over hierarchical (H2)
// measurements for each method and domain size.
func Fig5(cfg Fig5Config) []Fig5Row {
	var rows []Fig5Row
	rng := noise.NewRand(cfg.Seed)
	for _, n := range cfg.Domains {
		implicit := solver.TreeMatrix(n, 2)
		rcount, _ := implicit.Dims()
		y := make([]float64, rcount)
		for i := range y {
			y[i] = rng.Float64() * 100
		}
		var sparse mat.Matrix
		if s, ok := mat.ToSparse(implicit, cfg.MaxSparse); ok {
			sparse = s
		}
		var dense mat.Matrix
		if n <= cfg.MaxDense {
			dense = mat.Materialize(implicit)
		}
		for _, method := range Fig5Methods {
			row := Fig5Row{Method: method, Domain: n}
			var run func()
			switch method {
			case "LS Dense+Direct":
				if dense == nil || n > cfg.MaxDirect {
					row.Skipped = "dense too large"
				} else {
					run = func() { solver.DirectLS(dense, y, nil) }
				}
			case "LS Dense+Iterative":
				if dense == nil {
					row.Skipped = "dense too large"
				} else {
					run = func() { solver.CGLS(dense, y, cfg.Solver) }
				}
			case "LS Sparse+Iterative":
				if sparse == nil {
					row.Skipped = "nnz budget exceeded"
				} else {
					run = func() { solver.CGLS(sparse, y, cfg.Solver) }
				}
			case "LS Implicit+Iterative":
				run = func() { solver.CGLS(implicit, y, cfg.Solver) }
			case "NNLS Dense+Iterative":
				if dense == nil {
					row.Skipped = "dense too large"
				} else {
					run = func() { solver.NNLS(dense, y, nil, cfg.Solver) }
				}
			case "NNLS Sparse+Iterative":
				if sparse == nil {
					row.Skipped = "nnz budget exceeded"
				} else {
					run = func() { solver.NNLS(sparse, y, nil, cfg.Solver) }
				}
			case "NNLS Implicit+Iterative":
				run = func() { solver.NNLS(implicit, y, nil, cfg.Solver) }
			case "LS Tree-based":
				run = func() { solver.TreeLS(n, 2, y, nil) }
			}
			if run != nil {
				row.Seconds = timeIt(run).Seconds()
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// Fig5String renders the timing sweep.
func Fig5String(rows []Fig5Row) string {
	header := []string{"Method", "Domain", "Time", "Note"}
	out := make([][]string, len(rows))
	for i, r := range rows {
		timeCell := "-"
		if r.Skipped == "" {
			timeCell = fmtDur(time.Duration(r.Seconds * float64(time.Second)))
		}
		out[i] = []string{r.Method, fmtF(float64(r.Domain)), timeCell, r.Skipped}
	}
	return Table(header, out)
}
