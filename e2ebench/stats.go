package main

import (
	"math"
	"sort"
)

// A metric is one reported number with its unit and, for percentiles and
// medians, the sample count behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// samples collects nanosecond observations for percentile reporting.
type samples []int64

// quantile returns the nearest-rank q-quantile of the samples (sorted in
// place) and whether enough samples lie beyond it to report it: a
// percentile is only reported when at least ten samples exceed its rank.
func (s samples) quantile(q float64) (int64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	beyond := len(s) - 1 - rank
	return s[rank], beyond >= 10
}

// put stores the q-quantile of s under name, scaled from nanoseconds by
// div, if it has the ten samples beyond it the report requires.
func (s samples) put(m map[string]metric, name string, q float64, div float64, unit string) {
	v, ok := s.quantile(q)
	if !ok {
		return
	}
	m[name] = metric{Value: float64(v) / div, Unit: unit, N: len(s)}
}

// putLatency reports the median and 99th percentile of s as
// <prefix>_p50_<unit> and <prefix>_p99_<unit>.
func putLatency(m map[string]metric, s samples, prefix string, div float64, unit string) {
	s.put(m, prefix+"_p50_"+unit, 0.50, div, unit)
	s.put(m, prefix+"_p99_"+unit, 0.99, div, unit)
}

// medianFloat returns the median of xs (xs is sorted in place).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
