package solver

import (
	"fmt"

	"repro/internal/mat"
)

// This file implements the tree-based least-squares inference of Hay et
// al. (paper reference [21]), which the paper's Figure 5 compares against
// the general iterative engine. It is logically equivalent to ordinary
// least squares restricted to measurements forming a complete b-ary
// hierarchy with equal per-node noise, and runs in O(n) time.

// TreeNodes returns the number of nodes of a complete b-ary tree with
// depth levels (levels = k+1 where n = b^k leaves).
func TreeNodes(b, levels int) int {
	total, width := 0, 1
	for l := 0; l < levels; l++ {
		total += width
		width *= b
	}
	return total
}

// TreeMatrix returns the measurement matrix of a complete b-ary hierarchy
// over n = b^k leaves, with rows ordered breadth-first from the root and
// including the unit-length leaf ranges. It is the matrix whose noisy
// answers TreeLS consumes.
func TreeMatrix(n, b int) *mat.RangeQueriesMat {
	k := treeDepth(n, b)
	var ranges []mat.Range1D
	width := 1
	for l := 0; l <= k; l++ {
		size := n / width
		for j := 0; j < width; j++ {
			ranges = append(ranges, mat.Range1D{Lo: j * size, Hi: (j+1)*size - 1})
		}
		width *= b
	}
	return mat.RangeQueries(n, ranges)
}

func treeDepth(n, b int) int {
	if n < 1 || b < 2 {
		panic(fmt.Sprintf("solver: tree with n=%d b=%d", n, b))
	}
	k, m := 0, 1
	for m < n {
		m *= b
		k++
	}
	if m != n {
		panic(fmt.Sprintf("solver: tree leaves %d not a power of branching %d", n, b))
	}
	return k
}

// TreeLS runs the two-pass weighted-averaging algorithm of Hay et al. on
// noisy hierarchy answers y (BFS order, as produced by TreeMatrix) and
// returns the consistent leaf estimates. All measurements are assumed to
// carry equal noise. The optional workspace (nil allocates) supplies the
// two node-array passes, so repeated solves (per-epsilon trials,
// benchmark loops) allocate nothing but the returned leaves. The level
// bookkeeping lives in fixed stack arrays (a b-ary tree over an int
// domain has at most 63 levels).
func TreeLS(n, b int, y []float64, ws *mat.Workspace) []float64 {
	k := treeDepth(n, b)
	if want := TreeNodes(b, k+1); len(y) != want {
		panic(fmt.Sprintf("solver: TreeLS expects %d measurements, got %d", want, len(y)))
	}
	// Level offsets into the BFS array.
	var offsets [65]int
	width := 1
	for l := 0; l <= k; l++ {
		offsets[l+1] = offsets[l] + width
		width *= b
	}
	idx := func(level, j int) int { return offsets[level] + j }

	// Powers of b up to the tree height.
	var pow [66]float64
	pow[0] = 1
	for i := 1; i <= k+1; i++ {
		pow[i] = pow[i-1] * float64(b)
	}

	// Bottom-up pass: z blends each node's own measurement with its
	// children's aggregated z. A node at level l has height h = k-l+1
	// (leaves h=1).
	z := ws.Get(len(y))
	defer ws.Put(z)
	for l := k; l >= 0; l-- {
		h := k - l + 1
		levelWidth := int(pow[l])
		for j := 0; j < levelWidth; j++ {
			v := idx(l, j)
			if l == k { // leaf
				z[v] = y[v]
				continue
			}
			var childSum float64
			for c := 0; c < b; c++ {
				childSum += z[idx(l+1, j*b+c)]
			}
			num := (pow[h]-pow[h-1])*y[v] + (pow[h-1]-1)*childSum
			z[v] = num / (pow[h] - 1)
		}
	}

	// Top-down pass: push consistency down the tree.
	xbar := ws.Get(len(y))
	defer ws.Put(xbar)
	xbar[0] = z[0]
	for l := 0; l < k; l++ {
		levelWidth := int(pow[l])
		for j := 0; j < levelWidth; j++ {
			u := idx(l, j)
			var childSum float64
			for c := 0; c < b; c++ {
				childSum += z[idx(l+1, j*b+c)]
			}
			adj := (xbar[u] - childSum) / float64(b)
			for c := 0; c < b; c++ {
				v := idx(l+1, j*b+c)
				xbar[v] = z[v] + adj
			}
		}
	}

	leaves := make([]float64, n)
	copy(leaves, xbar[offsets[k]:offsets[k+1]])
	return leaves
}
