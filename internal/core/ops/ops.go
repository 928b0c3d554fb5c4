// Package ops is EKTELO's client-side operator layer: the paper's
// central abstraction (§3, Table 2) made first-class. A differentially
// private algorithm is not a monolithic function but a *plan* — a
// composition of typed operators drawn from five classes:
//
//   - transformation (T*, V-ReduceByPartition, …): reshape the protected
//     state inside the kernel, returning only a new handle;
//   - query (LM, the Laplace mechanism): consume budget, return noisy
//     answers;
//   - query selection (SI, SH2, SW, SPB, …): choose what to measure,
//     privately or from public metadata;
//   - partition selection (PA, PD, PS, PW, …): choose how to split or
//     reduce the domain;
//   - inference (LS, NLS, MW): combine all noisy measurements into one
//     estimate of the data vector.
//
// The package provides typed Operator values for each class plus the
// Iterate/ForEach combinators (the paper's I:(…) and TP[…] signature
// forms), a Graph that composes them into an inspectable plan, and a
// deterministic executor. Graph.Signature renders the plan in the
// notation of the paper's Fig. 2, so the registry table and the
// executable plans can be cross-checked mechanically; Env.Trace records
// the operator sequence a run actually executed (loops unrolled, skips
// applied).
//
// Plans interact with private data only through the kernel handle in
// the Env, so every graph is ε-differentially private by construction
// with ε the sum of its query/selection budget shares (paper Theorem
// 4.1) — the operator layer adds structure, never a new privacy proof
// obligation.
package ops

import (
	"fmt"

	"repro/internal/core/inference"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/solver"
)

// Class is one of the paper's five operator classes (§5), plus Meta for
// plan plumbing that touches no protected state.
type Class string

// The operator classes.
const (
	Transformation Class = "transformation"
	Query          Class = "query"
	Selection      Class = "query selection"
	Partition      Class = "partition selection"
	Inference      Class = "inference"
	Meta           Class = "meta"
)

// Env is the execution environment threaded through a plan graph. The
// executor owns it for the duration of a run; operators communicate by
// reading and writing its fields.
type Env struct {
	// Root is the handle the plan started from; measurements are mapped
	// to its domain before entering the log.
	Root *kernel.Handle
	// H is the cursor: the handle the next operator acts on.
	// Transformation operators move it; ForEach rebinds it per split.
	H *kernel.Handle
	// MS accumulates every measurement over Root's domain.
	MS *inference.Measurements
	// Strategy is the measurement matrix chosen by the last selection
	// operator, expressed over H's domain.
	Strategy mat.Matrix
	// Y and Scale are the last query operator's noisy answers and noise
	// scale.
	Y     []float64
	Scale float64
	// X is the current estimate; the final inference operator's output
	// and the value Execute returns.
	X []float64
	// Round is the 1-based iteration count inside an Iterate operator
	// (0 outside).
	Round int
	// Subs and SubIndex are the split handles and current group index
	// inside a ForEach operator.
	Subs     []*kernel.Handle
	SubIndex int
	// Vars carries plan-specific state between operators (partitions,
	// selected structures, shared workspaces).
	Vars map[string]any
	// Trace records the abbreviation of every operator executed, in
	// order, with iteration bodies unrolled — the run's audit trail.
	Trace []string
}

// NewEnv returns an environment rooted at h, with an empty measurement
// log over h's domain.
func NewEnv(h *kernel.Handle) *Env {
	return &Env{
		Root: h,
		H:    h,
		MS:   inference.NewMeasurements(h.Domain()),
		Vars: map[string]any{},
	}
}

// Operator is one typed step of a plan graph.
type Operator interface {
	// Abbr is the operator's signature abbreviation in the paper's Fig. 2
	// notation (e.g. "LM", "SI", "TR"). Meta operators may return "" to
	// stay out of the rendered signature.
	Abbr() string
	// Class is the operator's class.
	Class() Class
	// Run executes the operator against the environment.
	Run(env *Env) error
}

// ---------------------------------------------------------------------
// The five operator classes.
// ---------------------------------------------------------------------

// TransformOp is a transformation operator: it derives a new protected
// source and moves the cursor to it (paper §5.1).
type TransformOp struct {
	Name string
	// Apply derives the new handle, typically via env.H.Transform,
	// ReduceByPartition or a table operator.
	Apply func(env *Env) (*kernel.Handle, error)
}

func (o TransformOp) Abbr() string { return o.Name }
func (o TransformOp) Class() Class { return Transformation }
func (o TransformOp) Run(env *Env) error {
	h, err := o.Apply(env)
	if err != nil {
		return err
	}
	env.H = h
	return nil
}

// SelectOp is a query-selection operator: it chooses the measurement
// matrix for the next query operator (paper §5.3). Private selection
// (MWEM's worst-approximated query, PrivBayes structure search) spends
// budget inside Choose through the kernel handle.
type SelectOp struct {
	Name   string
	Choose func(env *Env) (mat.Matrix, error)
}

func (o SelectOp) Abbr() string { return o.Name }
func (o SelectOp) Class() Class { return Selection }
func (o SelectOp) Run(env *Env) error {
	m, err := o.Choose(env)
	if err != nil {
		return err
	}
	env.Strategy = m
	return nil
}

// PartitionOp is a partition-selection operator (paper §5.4): it
// computes a partition of the cursor's domain — privately for the
// data-adaptive partitions (AHP, DAWA), publicly for stripe/grid/
// workload partitions — and records it for the transformation or
// ForEach step that applies it.
type PartitionOp struct {
	Name  string
	Split func(env *Env) error
}

func (o PartitionOp) Abbr() string       { return o.Name }
func (o PartitionOp) Class() Class       { return Partition }
func (o PartitionOp) Run(env *Env) error { return o.Split(env) }

// MeasureOp is the Laplace query operator (LM, paper §5.2): it answers
// the selected strategy on the cursor with the Laplace mechanism and
// logs the measurement over the root domain.
type MeasureOp struct {
	Name string
	// Eps returns the budget share for this measurement; it may depend
	// on the environment (e.g. per-round shares inside Iterate).
	Eps func(env *Env) float64
}

func (o MeasureOp) Abbr() string { return o.Name }
func (o MeasureOp) Class() Class { return Query }
func (o MeasureOp) Run(env *Env) error {
	y, scale, err := env.H.VectorLaplace(env.Strategy, o.Eps(env))
	if err != nil {
		return err
	}
	env.MS.Add(env.H.MapTo(env.Root, env.Strategy), y, scale)
	env.Y, env.Scale = y, scale
	return nil
}

// InferOp is an inference operator (paper §5.5): a Public computation
// producing an estimate from the measurement log (and, for iterative
// plans, the previous estimate).
type InferOp struct {
	Name  string
	Solve func(env *Env) ([]float64, error)
}

func (o InferOp) Abbr() string { return o.Name }
func (o InferOp) Class() Class { return Inference }
func (o InferOp) Run(env *Env) error {
	x, err := o.Solve(env)
	if err != nil {
		return err
	}
	env.X = x
	return nil
}

// MetaOp is plan plumbing that touches no protected state: estimate
// initialization, public post-transforms, exact side constraints. With
// an empty Name it stays out of the rendered signature.
type MetaOp struct {
	Name string
	Do   func(env *Env) error
}

func (o MetaOp) Abbr() string       { return o.Name }
func (o MetaOp) Class() Class       { return Meta }
func (o MetaOp) Run(env *Env) error { return o.Do(env) }

// ---------------------------------------------------------------------
// Combinators.
// ---------------------------------------------------------------------

// IterateOp runs its body graph a fixed number of rounds — the paper's
// I:(…) signature form (MWEM's select/measure/update loop). The body
// reads env.Round (1-based) for round-dependent budget shares or
// strategies.
type IterateOp struct {
	Rounds int
	Body   *Graph
}

func (o IterateOp) Abbr() string { return "I" }
func (o IterateOp) Class() Class { return Meta }
func (o IterateOp) Run(env *Env) error {
	saved := env.Round
	defer func() { env.Round = saved }()
	for t := 1; t <= o.Rounds; t++ {
		env.Round = t
		if err := o.Body.run(env); err != nil {
			return err
		}
	}
	return nil
}

// ForEachOp runs its body graph once per split handle in env.Subs — the
// paper's TP[…] subplan-per-partition form. The cursor is rebound to
// each sub-source for its body run and restored afterwards; budget
// spent on the disjoint subs composes in parallel through the kernel's
// partition variable.
type ForEachOp struct {
	Body *Graph
	// Skip, when non-nil, suppresses the body for a split (e.g. empty
	// blocks in adaptive grids).
	Skip func(env *Env) bool
}

func (o ForEachOp) Abbr() string { return "TP" }
func (o ForEachOp) Class() Class { return Meta }
func (o ForEachOp) Run(env *Env) error {
	savedH, savedIdx := env.H, env.SubIndex
	defer func() { env.H, env.SubIndex = savedH, savedIdx }()
	for g, sub := range env.Subs {
		env.H, env.SubIndex = sub, g
		if o.Skip != nil && o.Skip(env) {
			continue
		}
		if err := o.Body.run(env); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Common operator constructors.
// ---------------------------------------------------------------------

// Laplace returns the standard Laplace query operator with a fixed
// budget share.
func Laplace(eps float64) MeasureOp {
	return MeasureOp{Name: "LM", Eps: func(*Env) float64 { return eps }}
}

// LS returns the ordinary least-squares inference operator.
func LS(opts solver.Options) InferOp {
	return InferOp{Name: "LS", Solve: func(env *Env) ([]float64, error) {
		return env.MS.LeastSquares(opts), nil
	}}
}

// NNLS returns the non-negative least-squares inference operator.
func NNLS(opts solver.Options) InferOp {
	return InferOp{Name: "NLS", Solve: func(env *Env) ([]float64, error) {
		return env.MS.NNLS(opts), nil
	}}
}

// MW returns the multiplicative-weights inference operator, updating
// the current estimate in place of replacing it from scratch.
func MW(iters int) InferOp {
	return InferOp{Name: "MW", Solve: func(env *Env) ([]float64, error) {
		return env.MS.MultWeights(env.X, iters), nil
	}}
}

// OutputY is the meta step closing measure-only plans (Identity): the
// last noisy answers are the estimate.
func OutputY() MetaOp {
	return MetaOp{Do: func(env *Env) error {
		env.X = env.Y
		return nil
	}}
}

// ---------------------------------------------------------------------
// Graph.
// ---------------------------------------------------------------------

// Graph is an executable, inspectable plan: a named, ordered
// composition of operators. Build one with New/Add, render it with
// Signature, run it with Execute. Graphs whose operators keep all
// run-varying state in the Env are reusable; plans built by the
// standard builders execute any number of times.
type Graph struct {
	name  string
	steps []Operator
}

// New returns an empty plan graph with the given name.
func New(name string) *Graph { return &Graph{name: name} }

// Add appends operators to the plan, returning the graph for chaining.
func (g *Graph) Add(ops ...Operator) *Graph {
	g.steps = append(g.steps, ops...)
	return g
}

// Signature renders the plan in the paper's Fig. 2 notation: operator
// abbreviations in order, iteration bodies as "I:( … )", per-partition
// subplans as "TP[ … ]". Meta operators with empty abbreviations are
// omitted.
func (g *Graph) Signature() string {
	out := ""
	for _, op := range g.steps {
		var part string
		switch t := op.(type) {
		case IterateOp:
			part = "I:( " + t.Body.Signature() + " )"
		case ForEachOp:
			part = "TP[ " + t.Body.Signature() + " ]"
		default:
			part = op.Abbr()
		}
		if part == "" {
			continue
		}
		if out != "" {
			out += " "
		}
		out += part
	}
	return out
}

// Execute runs the plan against a fresh environment rooted at h and
// returns the final estimate. Execution is deterministic: operators run
// in composition order on the calling goroutine, and all randomness
// flows through the handle's kernel session.
func (g *Graph) Execute(h *kernel.Handle) ([]float64, error) {
	env := NewEnv(h)
	if err := g.run(env); err != nil {
		return nil, err
	}
	return env.X, nil
}

// ExecuteEnv runs the plan against a caller-built environment, for
// callers that need the full Env afterwards (measurement log, trace,
// plan variables).
func (g *Graph) ExecuteEnv(env *Env) ([]float64, error) {
	if err := g.run(env); err != nil {
		return nil, err
	}
	return env.X, nil
}

// run executes the steps against env, recording the trace.
func (g *Graph) run(env *Env) error {
	for i, op := range g.steps {
		if a := op.Abbr(); a != "" {
			env.Trace = append(env.Trace, a)
		}
		if err := op.Run(env); err != nil {
			return fmt.Errorf("ops: %s step %d (%s): %w", g.name, i, describe(op), err)
		}
	}
	return nil
}

// describe names an operator for error messages.
func describe(op Operator) string {
	if a := op.Abbr(); a != "" {
		return string(op.Class()) + " " + a
	}
	return string(op.Class())
}
