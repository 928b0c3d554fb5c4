package selection

import (
	"math"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// This file implements the PrivBayes selection operator (paper Fig. 1,
// SPB; plan #17): it privately constructs a Bayesian network over the
// attributes (one parent per attribute, i.e. a tree, which is the k=1
// degree PrivBayes configuration) using the exponential mechanism over
// mutual-information scores, and returns the measurement matrix whose
// answers are the sufficient statistics of the network — the union of
// the (child, parent) pairwise marginals.

// BayesNet records the privately selected structure: Parent[i] is the
// parent attribute of attribute i, or -1 for the root.
type BayesNet struct {
	Parent []int
	Order  []int // attribute selection order, root first
}

// MISensitivity returns the sensitivity of empirical mutual information
// between two attributes of a table with n records (Zhang et al.,
// PrivBayes): (2/n)·log((n+1)/2) + ((n−1)/n)·log((n+1)/(n−1)).
func MISensitivity(n float64) float64 {
	if n < 2 {
		n = 2
	}
	return (2/n)*math.Log((n+1)/2) + ((n-1)/n)*math.Log((n+1)/(n-1))
}

// PrivBayesSelect privately builds a degree-1 Bayes net over the
// vectorized domain with the given shape and returns the measurement
// matrix of its sufficient statistics along with the selected structure.
//
// h must be a vector source whose domain is the row-major product of
// shape. nRecords is a public (or separately estimated) record count
// used to calibrate the mutual-information sensitivity. eps is consumed
// by the structure selection; the caller measures the returned matrix
// with a separate budget share.
func PrivBayesSelect(h *kernel.Handle, shape []int, eps float64, nRecords float64) (mat.Matrix, BayesNet, error) {
	d := len(shape)
	net := BayesNet{Parent: make([]int, d)}
	for i := range net.Parent {
		net.Parent[i] = -1
	}
	// Root: the attribute with the largest domain carries the most
	// information; choosing it needs no privacy budget (public metadata).
	root := 0
	for k := 1; k < d; k++ {
		if shape[k] > shape[root] {
			root = k
		}
	}
	picked := make([]bool, d)
	picked[root] = true
	nPicked := 1
	net.Order = []int{root}

	if d > 1 {
		perRound := eps / float64(d-1)
		sens := MISensitivity(nRecords)
		// One workspace serves every round's candidate scoring: the
		// mutual-information joint/marginal tables and the score vector are
		// reused across the O(d²) candidate evaluations instead of being
		// reallocated per pair.
		ws := mat.NewWorkspace()
		type pair struct{ child, parent int }
		cands := make([]pair, 0, d*d)
		for nPicked < d {
			// Candidate (child, parent) pairs with parent already picked,
			// enumerated in ascending attribute order. The order must be
			// deterministic: NoisyMax's selection index maps back into this
			// slice, and the exponential-mechanism noise is consumed
			// per-candidate in slice order — iterating a Go map here made
			// two identically seeded runs pick different structures.
			cands = cands[:0]
			for c := 0; c < d; c++ {
				if picked[c] {
					continue
				}
				for p := 0; p < d; p++ {
					if picked[p] {
						cands = append(cands, pair{child: c, parent: p})
					}
				}
			}
			var scores []float64
			idx, err := h.NoisyMax(func(x []float64) []float64 {
				scores = ws.Get(len(cands))
				for i, pr := range cands {
					scores[i] = mutualInformation(x, shape, pr.child, pr.parent, ws)
				}
				return scores
			}, perRound, sens)
			if scores != nil {
				ws.Put(scores)
			}
			if err != nil {
				return nil, net, err
			}
			sel := cands[idx]
			picked[sel.child] = true
			nPicked++
			net.Parent[sel.child] = sel.parent
			net.Order = append(net.Order, sel.child)
		}
	}

	// Sufficient statistics: root's 1-D marginal plus each (child,
	// parent) pairwise marginal, all expressed over the full domain as
	// Kronecker products of Identity/Total factors (paper Example 7.5).
	blocks := []mat.Matrix{marginalMatrix(shape, root, -1)}
	for c := 0; c < d; c++ {
		if p := net.Parent[c]; p >= 0 {
			blocks = append(blocks, marginalMatrix(shape, c, p))
		}
	}
	return mat.VStack(blocks...), net, nil
}

// marginalMatrix builds the marginal query matrix keeping dims a (and b
// if >= 0) and summing out the rest.
func marginalMatrix(shape []int, a, b int) mat.Matrix {
	factors := make([]mat.Matrix, len(shape))
	for k, s := range shape {
		if k == a || k == b {
			factors[k] = mat.Identity(s)
		} else {
			factors[k] = mat.Total(s)
		}
	}
	return mat.Kron(factors...)
}

// mutualInformation computes the empirical mutual information between
// attributes a and b of the contingency vector x with the given shape.
// The optional workspace supplies the joint and marginal tables, so
// PrivBayes's per-round candidate sweeps reuse them across pairs.
func mutualInformation(x []float64, shape []int, a, b int, ws *mat.Workspace) float64 {
	strides := rowMajorStrides(shape)
	na, nb := shape[a], shape[b]
	joint := ws.GetZero(na * nb)
	defer ws.Put(joint)
	var total float64
	for idx, v := range x {
		if v == 0 {
			continue
		}
		va := (idx / strides[a]) % na
		vb := (idx / strides[b]) % nb
		joint[va*nb+vb] += v
		total += v
	}
	if total == 0 {
		return 0
	}
	margA := ws.GetZero(na)
	margB := ws.GetZero(nb)
	defer func() {
		ws.Put(margA)
		ws.Put(margB)
	}()
	for va := 0; va < na; va++ {
		for vb := 0; vb < nb; vb++ {
			margA[va] += joint[va*nb+vb]
			margB[vb] += joint[va*nb+vb]
		}
	}
	var mi float64
	for va := 0; va < na; va++ {
		for vb := 0; vb < nb; vb++ {
			j := joint[va*nb+vb]
			if j == 0 {
				continue
			}
			p := j / total
			mi += p * math.Log(p*total*total/(margA[va]*margB[vb]))
		}
	}
	return mi
}

func rowMajorStrides(shape []int) []int {
	strides := make([]int, len(shape))
	n := 1
	for k := len(shape) - 1; k >= 0; k-- {
		strides[k] = n
		n *= shape[k]
	}
	return strides
}
