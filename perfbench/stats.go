package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: a p95 over 20 samples is one sample, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th quantile (0 < p < 1) of xs and
// whether it may be reported, i.e. whether at least minBeyond samples lie
// beyond it. With rank r = ceil(p·n), the samples beyond are n − r.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := int(math.Ceil(p*float64(n) - 1e-9)) // 0.9*100 must not round up to rank 91
	r = max(1, min(r, n))
	return s[r-1], n-r >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It summarises repeated identical runs,
// where the count is small by design; tail percentiles go through
// percentile.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
