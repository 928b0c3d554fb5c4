// Package vec provides small dense-vector helpers used throughout the
// ektelo-go matrix and solver substrates. All functions operate on
// []float64 in place where a destination is given and never allocate
// unless documented otherwise.
package vec

import (
	"fmt"
	"math"
)

// Zero sets every element of x to 0.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Clone returns a newly allocated copy of x.
func Clone(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// Dot returns the inner product of x and y. It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += a*x. It panics if the lengths differ.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Scale multiplies every element of x by a.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow for
// moderately large values by scaling with the max element.
func Norm2(x []float64) float64 {
	var maxAbs float64
	for _, v := range x {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		r := v / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Max returns the maximum element of x. It panics on an empty slice.
func Max(x []float64) float64 {
	if len(x) == 0 {
		panic("vec: Max of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ClampNonNeg sets negative elements of x to 0.
func ClampNonNeg(x []float64) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// AllClose reports whether |x[i]-y[i]| <= atol + rtol*|y[i]| for all i.
func AllClose(x, y []float64, rtol, atol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Abs(x[i]-y[i]) > atol+rtol*math.Abs(y[i]) {
			return false
		}
	}
	return true
}

// Basis returns the i-th standard basis vector of length n.
func Basis(n, i int) []float64 {
	e := make([]float64, n)
	e[i] = 1
	return e
}

// Ones returns a length-n vector of all ones.
func Ones(n int) []float64 {
	x := make([]float64, n)
	Fill(x, 1)
	return x
}
