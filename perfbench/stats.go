package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail percentile resting on fewer is noise, so the report falls back to
// the highest percentile the sample supports.
const minBeyond = 10

// quantile is one reported percentile: the value, the percentile actually
// used (lower than asked when the sample is too small) and the sample
// count behind it.
type quantile struct {
	Value   float64
	P       float64
	Samples int
}

// rank is the 1-based nearest-rank index of percentile p in n samples.
// The epsilon keeps p·n from rounding up past an exact integer (0.99·1000
// is not exactly 990 in floating point).
func rank(p float64, n int) int {
	k := int(math.Ceil(p*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// supportedP returns want when at least minBeyond of n samples lie above
// it, otherwise the highest whole percentile that leaves minBeyond above
// (never below the median).
func supportedP(want float64, n int) float64 {
	if n-rank(want, n) >= minBeyond {
		return want
	}
	p := math.Floor(100*(1-float64(minBeyond)/float64(n))) / 100
	for p > 0.5 && n-rank(p, n) < minBeyond {
		p -= 0.01
	}
	if p < 0.5 {
		p = 0.5
	}
	return p
}

// percentileOf reports the nearest-rank percentile want of samples (which
// it sorts in place), falling back per supportedP.
func percentileOf(samples []float64, want float64) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{P: want}
	}
	sort.Float64s(samples)
	p := supportedP(want, n)
	return quantile{Value: samples[rank(p, n)-1], P: p, Samples: n}
}

// median of values (copied, not reordered).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
