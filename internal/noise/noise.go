// Package noise provides the randomness primitives used by ektelo-go's
// privileged operators: Laplace sampling for the (vector) Laplace
// mechanism and the exponential mechanism for private selection. All
// sampling flows through an injected *rand.Rand so experiments are
// reproducible.
package noise

import (
	"math"
	"math/rand/v2"
)

// NewRand returns a deterministic PRNG seeded with the given seed.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Laplace draws one sample from the Laplace distribution with mean 0 and
// scale b, via the inverse CDF.
func Laplace(rng *rand.Rand, b float64) float64 {
	if b < 0 {
		panic("noise: Laplace negative scale")
	}
	if b == 0 {
		return 0
	}
	u := rng.Float64() - 0.5 // uniform in (-0.5, 0.5)
	if u >= 0 {
		return -b * math.Log(1-2*u)
	}
	return b * math.Log(1+2*u)
}

// LaplaceVec fills dst with independent Laplace(0, b) samples.
func LaplaceVec(rng *rand.Rand, dst []float64, b float64) {
	for i := range dst {
		dst[i] = Laplace(rng, b)
	}
}

// Exponential selects an index from scores using the exponential
// mechanism with privacy parameter eps and score sensitivity sens:
// P(i) ∝ exp(eps·score[i]/(2·sens)). Scores may be any real numbers.
func Exponential(rng *rand.Rand, scores []float64, eps, sens float64) int {
	if len(scores) == 0 {
		panic("noise: Exponential with no candidates")
	}
	// NaN-rejecting form: `sens <= 0` would let a NaN sensitivity
	// through (every NaN comparison is false) and poison the weights.
	if !(sens > 0) {
		panic("noise: Exponential non-positive sensitivity")
	}
	// Subtract the max score for numerical stability.
	maxScore := scores[0]
	for _, s := range scores[1:] {
		if s > maxScore {
			maxScore = s
		}
	}
	weights := make([]float64, len(scores))
	var total float64
	for i, s := range scores {
		w := math.Exp(eps * (s - maxScore) / (2 * sens))
		weights[i] = w
		total += w
	}
	u := rng.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(scores) - 1
}
