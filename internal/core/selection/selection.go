// Package selection implements EKTELO's query-selection operator class
// (paper §5.3): operators that output a set of measurement queries in
// matrix form, ranging from fixed strategies (Identity, Total, Prefix,
// Privelet/Wavelet, H2, HB, QuadTree, grids) through workload-adaptive
// strategies (Greedy-H, HDMM-lite, Stripe-Kron) to the data-adaptive,
// Private→Public selections used by MWEM (WorstApprox augmentation) and
// PrivBayes.
package selection

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/mat"
)

// Identity returns the identity strategy over n cells.
func Identity(n int) mat.Matrix { return mat.Identity(n) }

// Total returns the single total query over n cells.
func Total(n int) mat.Matrix { return mat.Total(n) }

// Privelet returns the Haar-wavelet strategy of Xiao et al. (paper plan
// #2). Domains that are not a power of two are handled by embedding into
// the next power of two via a column-subset wrapper, which preserves the
// implicit Abs computation.
func Privelet(n int) mat.Matrix {
	p2 := nextPow2(n)
	w := mat.Wavelet(p2)
	if p2 == n {
		return w
	}
	return ColSubset(w, n)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// ColSubset restricts m to its first cols columns: the result is
// M[:, :cols], evaluated implicitly by zero-padding inputs. Abs
// distributes over column selection.
func ColSubset(m mat.Matrix, cols int) mat.Matrix {
	_, c := m.Dims()
	if cols > c || cols < 0 {
		panic(fmt.Sprintf("selection: ColSubset %d of %d columns", cols, c))
	}
	if cols == c {
		return m
	}
	return &colSubsetMat{m: m, cols: cols}
}

type colSubsetMat struct {
	m    mat.Matrix
	cols int
}

func (s *colSubsetMat) Dims() (int, int) {
	r, _ := s.m.Dims()
	return r, s.cols
}

func (s *colSubsetMat) MatVec(dst, x []float64) {
	_, c := s.m.Dims()
	padded := make([]float64, c)
	copy(padded, x)
	s.m.MatVec(dst, padded)
}

func (s *colSubsetMat) TMatVec(dst, x []float64) {
	_, c := s.m.Dims()
	full := make([]float64, c)
	s.m.TMatVec(full, x)
	copy(dst, full[:s.cols])
}

// Triplets lists the child's entries in the kept columns (mat.Tripleter).
func (s *colSubsetMat) Triplets(maxNNZ int) ([]mat.Triplet, bool) {
	ts, ok := mat.Triplets(s.m, 0)
	ts = slices.DeleteFunc(ts, func(t mat.Triplet) bool { return t.Col >= s.cols })
	return ts, ok && (maxNNZ <= 0 || len(ts) <= maxNNZ)
}

func (s *colSubsetMat) Abs() mat.Matrix { return ColSubset(mat.Abs(s.m), s.cols) }

// H2 returns the binary-hierarchy strategy of Hay et al. (paper plan #3):
// the union of the identity (leaves) and the internal nodes of a binary
// aggregation tree, represented implicitly as range queries.
func H2(n int) mat.Matrix {
	if n <= 1 {
		return mat.Identity(n)
	}
	return mat.VStack(mat.Identity(n), mat.RangeQueries(n, mat.HierarchicalRanges(n, 2)))
}

// HB returns the hierarchical strategy with the branching factor
// optimized per Qardaji et al. (paper plan #4).
func HB(n int) mat.Matrix {
	if n <= 1 {
		return mat.Identity(n)
	}
	b := HBBranching(n)
	if b >= n { // flat: hierarchy degenerates to identity + total
		return mat.VStack(mat.Identity(n), mat.Total(n))
	}
	return mat.VStack(mat.Identity(n), mat.RangeQueries(n, mat.HierarchicalRanges(n, b)))
}

// HBBranching picks the branching factor minimizing the HB average range
// query variance proxy (b−1)·h³ where h = ⌈log_b n⌉ (Qardaji et al.).
func HBBranching(n int) int {
	best, bestCost := 2, math.MaxFloat64
	maxB := n
	if maxB > 4096 {
		maxB = 4096
	}
	for b := 2; b <= maxB; b++ {
		h := math.Ceil(math.Log(float64(n)) / math.Log(float64(b)))
		if h < 1 {
			h = 1
		}
		cost := float64(b-1) * h * h * h
		if cost < bestCost {
			bestCost = cost
			best = b
		}
	}
	return best
}

// GreedyH returns the workload-aware weighted binary hierarchy of Li et
// al. (DAWA's stage 2, paper plan #5). Each workload range is decomposed
// into canonical tree nodes; level weights are then set proportionally to
// usage^(1/3), which minimizes the analytic error bound
// (Σ_ℓ w_ℓ)²·Σ_ℓ c_ℓ/w_ℓ² of a weighted-hierarchy strategy.
func GreedyH(n int, workloadRanges []mat.Range1D) mat.Matrix {
	if n <= 1 {
		return mat.Identity(n)
	}
	levels := 1
	for s := 1; s < n; s *= 2 {
		levels++
	}
	usage := make([]float64, levels) // usage[ℓ]: canonical nodes used at depth ℓ
	for _, r := range workloadRanges {
		countCanonical(0, n-1, r, 0, usage)
	}
	for l := range usage {
		usage[l]++ // smoothing: keep every level measurable
	}
	// Hierarchy rows (including leaves as depth = levels-1 unit ranges).
	ranges := append(mat.HierarchicalRanges(n, 2), unitRanges(n)...)
	weights := make([]float64, len(ranges))
	for i, r := range ranges {
		depth := depthOf(n, r.Size())
		weights[i] = math.Cbrt(usage[depth])
	}
	// Normalize so the strategy has unit max weight (sensitivity is then
	// the per-column sum of level weights, computed downstream).
	maxW := 0.0
	for _, w := range weights {
		if w > maxW {
			maxW = w
		}
	}
	for i := range weights {
		weights[i] /= maxW
	}
	return mat.RowScaled(weights, mat.RangeQueries(n, ranges))
}

func unitRanges(n int) []mat.Range1D {
	out := make([]mat.Range1D, n)
	for i := range out {
		out[i] = mat.Range1D{Lo: i, Hi: i}
	}
	return out
}

// depthOf maps a dyadic node size to its depth in a binary tree over n.
func depthOf(n, size int) int {
	d := 0
	for s := n; s > size && s > 1; s = (s + 1) / 2 {
		d++
	}
	return d
}

// countCanonical decomposes query range q into canonical nodes of the
// binary tree over [lo,hi], incrementing usage at each selected depth.
func countCanonical(lo, hi int, q mat.Range1D, depth int, usage []float64) {
	if q.Lo > hi || q.Hi < lo {
		return
	}
	if q.Lo <= lo && q.Hi >= hi {
		if depth < len(usage) {
			usage[depth]++
		} else {
			usage[len(usage)-1]++
		}
		return
	}
	if lo == hi {
		return
	}
	mid := (lo + hi) / 2
	countCanonical(lo, mid, q, depth+1, usage)
	countCanonical(mid+1, hi, q, depth+1, usage)
}
