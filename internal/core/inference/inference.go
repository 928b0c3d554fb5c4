// Package inference implements EKTELO's inference operator class (paper
// §5.5): Public operators that combine all noisy measurements taken
// during a plan — possibly on differently-transformed vectors — into a
// single estimate x̂ of the original data vector. Measurements taken on
// transformed vectors are mapped back to the vectorize-root domain
// through their (public) linear lineage before inference, realizing the
// paper's "inference under vector transformations".
package inference

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
	"repro/internal/solver"
)

// Measurements accumulates the (query matrix, noisy answers, noise
// scale) triples produced by query operators during a plan. All matrices
// must already be expressed over the same root domain (use
// kernel.Handle.MapToRoot for measurements on transformed vectors).
type Measurements struct {
	domain int
	blocks []mat.Matrix
	ys     [][]float64
	scales []float64
}

// wsPool shares solver workspaces across inference calls. A Workspace
// is not safe for concurrent use, so each solve checks one out for its
// duration; concurrent solves on the same Measurements each get their
// own.
var wsPool = sync.Pool{New: func() any { return mat.NewWorkspace() }}

// NewMeasurements returns an empty measurement log over a root domain of
// the given size.
func NewMeasurements(domain int) *Measurements {
	return &Measurements{domain: domain}
}

// Add records a measurement block: noisy answers y to the queries m,
// each perturbed with Laplace noise of the given scale (b parameter).
func (ms *Measurements) Add(m mat.Matrix, y []float64, noiseScale float64) {
	r, c := m.Dims()
	if c != ms.domain {
		panic(fmt.Sprintf("inference: measurement over domain %d, log expects %d", c, ms.domain))
	}
	if r != len(y) {
		panic(fmt.Sprintf("inference: %d answers for %d queries", len(y), r))
	}
	if noiseScale < 0 {
		panic("inference: negative noise scale")
	}
	ms.blocks = append(ms.blocks, m)
	ms.ys = append(ms.ys, append([]float64(nil), y...))
	ms.scales = append(ms.scales, noiseScale)
}

// AddExact records a publicly known linear fact (e.g. a known total) as a
// measurement with negligible noise, so inference treats it as a
// near-hard constraint (paper §5.5).
func (ms *Measurements) AddExact(m mat.Matrix, y []float64) {
	ms.Add(m, y, 1e-9)
}

// NumBlocks returns the number of measurement blocks recorded so far.
func (ms *Measurements) NumBlocks() int { return len(ms.blocks) }

// Block returns the i-th measurement block's triple: the query matrix
// (over the root domain), its noisy answers and the per-row noise scale.
// The returned slice is the log's own storage; callers must not modify
// it. Services use this to move a plan run's measurements into their own
// warm logs without re-deriving them.
func (ms *Measurements) Block(i int) (m mat.Matrix, y []float64, noiseScale float64) {
	return ms.blocks[i], ms.ys[i], ms.scales[i]
}

// Len returns the total number of measured queries.
func (ms *Measurements) Len() int {
	total := 0
	for _, y := range ms.ys {
		total += len(y)
	}
	return total
}

// Matrix returns the union (vertical stack) of all measurement blocks.
func (ms *Measurements) Matrix() mat.Matrix {
	if len(ms.blocks) == 0 {
		panic("inference: empty measurement log")
	}
	if len(ms.blocks) == 1 {
		return ms.blocks[0]
	}
	return mat.VStack(ms.blocks...)
}

// Answers returns the concatenated noisy answers.
func (ms *Measurements) Answers() []float64 {
	out := make([]float64, 0, ms.Len())
	for _, y := range ms.ys {
		out = append(out, y...)
	}
	return out
}

// Weights returns per-row weights 1/scale so that all rows have unit
// noise after weighting (paper §5.5: accounting for unequal noise).
// Weights are capped at 100× the smallest block weight so that
// near-exact side information acts as a strong constraint without
// destroying the conditioning of the iterative solvers.
func (ms *Measurements) Weights() []float64 {
	out := make([]float64, 0, ms.Len())
	minW := math.Inf(1)
	for _, s := range ms.scales {
		if s > 0 && 1/s < minW {
			minW = 1 / s
		}
	}
	if math.IsInf(minW, 1) {
		minW = 1
	}
	maxW := minW * 100
	for bi, y := range ms.ys {
		w := maxW
		if ms.scales[bi] > 0 {
			w = 1 / ms.scales[bi]
			if w > maxW {
				w = maxW
			}
		}
		for range y {
			out = append(out, w)
		}
	}
	return out
}

// uniformNoise reports whether all blocks share one noise scale, in
// which case weighting is unnecessary.
func (ms *Measurements) uniformNoise() bool {
	for _, s := range ms.scales[1:] {
		if s != ms.scales[0] {
			return false
		}
	}
	return true
}

// LeastSquares returns the ordinary least-squares estimate of the root
// data vector from all measurements (paper Definition 5.1), weighting
// rows by inverse noise scale when scales differ.
func (ms *Measurements) LeastSquares(opts solver.Options) []float64 {
	var w []float64
	if !ms.uniformNoise() {
		w = ms.Weights()
	}
	opts, done := solverOpts(opts)
	defer done()
	return solver.LeastSquares(ms.Matrix(), ms.Answers(), w, opts)
}

// solverOpts attaches a pooled workspace to opts when the caller did not
// supply one; done returns it to the pool.
func solverOpts(opts solver.Options) (solver.Options, func()) {
	if opts.Work != nil {
		return opts, func() {}
	}
	ws := wsPool.Get().(*mat.Workspace)
	opts.Work = ws
	return opts, func() { wsPool.Put(ws) }
}

// NNLS returns the non-negative least-squares estimate (paper
// Definition 5.2).
func (ms *Measurements) NNLS(opts solver.Options) []float64 {
	var w []float64
	if !ms.uniformNoise() {
		w = ms.Weights()
	}
	opts, done := solverOpts(opts)
	defer done()
	return solver.NNLS(ms.Matrix(), ms.Answers(), w, opts)
}

// MultWeights runs multiplicative-weights inference starting from xInit
// (typically a uniform vector with a known or estimated total mass). The
// update loop's basis and row buffers come from a pooled workspace, so
// per-round plan loops (MWEM) stay allocation-free inside the passes.
func (ms *Measurements) MultWeights(xInit []float64, iters int) []float64 {
	ws := wsPool.Get().(*mat.Workspace)
	defer wsPool.Put(ws)
	return solver.MultWeights(ms.Matrix(), ms.Answers(), xInit, iters, ws)
}
