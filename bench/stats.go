package main

import (
	"math"
	"sort"
)

// Dist summarises one set of samples: count, quartiles and the upper
// percentiles the tail rule chooses from. Every timing the benchmark
// reports carries one.
type Dist struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	P90    float64 `json:"p90"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
}

// percentile is the nearest-rank percentile of sorted samples:
// the smallest sample with at least p of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank percentile p.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// tailPercentile is the highest of p99, p95 and p90 that has at least
// ten samples beyond it, or 0 when n is too small for any of them.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// summarize sorts a copy of the samples and summarises them.
func summarize(samples []float64) Dist {
	if len(samples) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Dist{
		N:      len(s),
		Min:    s[0],
		Q1:     percentile(s, 0.25),
		Median: percentile(s, 0.50),
		Q3:     percentile(s, 0.75),
		P90:    percentile(s, 0.90),
		P95:    percentile(s, 0.95),
		P99:    percentile(s, 0.99),
		Max:    s[len(s)-1],
	}
}

// at returns the summary's value for one of the percentiles it keeps.
func (d Dist) at(p float64) float64 {
	switch p {
	case 0.50:
		return d.Median
	case 0.90:
		return d.P90
	case 0.95:
		return d.P95
	case 0.99:
		return d.P99
	}
	return math.NaN()
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which
// is how the acceptance rule measures run-to-run spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
