package inference

import "math"

// This file implements the Thresholding inference operator (paper
// Fig. 1, HR): a Public post-processing step that suppresses estimates
// indistinguishable from zero at the measured noise level, used by
// sparse-domain algorithms after least squares.

// Threshold zeroes every entry of xhat whose magnitude is below t and
// returns xhat (modified in place). Thresholding is pure
// post-processing and consumes no privacy budget.
func Threshold(xhat []float64, t float64) []float64 {
	for i, v := range xhat {
		if math.Abs(v) < t {
			xhat[i] = 0
		}
	}
	return xhat
}

// NoiseAwareThreshold zeroes entries smaller than k standard deviations
// of the Laplace noise with the given scale (std = scale·√2). k around
// 1–2 suppresses most pure-noise cells while keeping real mass.
func NoiseAwareThreshold(xhat []float64, noiseScale, k float64) []float64 {
	return Threshold(xhat, k*noiseScale*math.Sqrt2)
}
