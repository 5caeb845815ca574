package main

import (
	"math"
	"sort"
	"time"
)

// quantile is one order statistic together with the number of samples it
// was taken from, so a reader can tell a p99 of 40 samples (the maximum)
// from one of 40,000.
type quantile struct {
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted,
// which must be in ascending order. An empty input yields {0, 0}.
func percentile(sorted []float64, p float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{}
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return quantile{Value: sorted[idx], N: n}
}

// sortedMillis converts durations to ascending milliseconds.
func sortedMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// summary describes the samples behind one reported metric: the median is
// the reported value, spread is (q3 - q1) / median with the quartiles
// computed the way Python's statistics.quantiles(n=4) computes them
// (the "exclusive" method), and N is the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q1, q3 := exclusiveQuartile(s, 1), exclusiveQuartile(s, 3)
	out := summary{Median: med, Q1: q1, Q3: q3, N: n}
	if med != 0 {
		out.Spread = math.Abs(q3-q1) / math.Abs(med)
	}
	return out
}

// exclusiveQuartile mirrors statistics.quantiles(data, n=4,
// method="exclusive") for quartile k (1 or 3) of ascending data, n >= 2,
// clamping and extrapolating exactly as CPython does.
func exclusiveQuartile(s []float64, k int) float64 {
	ld := len(s)
	m := ld + 1
	j := k * m / 4
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := float64(k*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}
