package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: fewer, and the tail is one or two unlucky samples rather
// than a property of the system.
const minBeyond = 10

// tail is the percentile every latency tail reports. It is fixed, so
// runs of different lengths report the same statistic, and every run
// measures until minBeyond samples lie beyond it.
const tail = 90

// sample is a set of timings (or other values) of one operation class.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (the mean of the middle two for an
// even count), or NaN for an empty sample.
func (s sample) median() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := s.sorted()
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100)
// and how many samples lie above it. It refuses a percentile with
// fewer than minBeyond samples beyond it.
func (s sample) percentile(p float64) (float64, int, error) {
	if p <= 0 || p >= 100 {
		return 0, 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	n := len(s)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return s.sorted()[rank-1], beyond, nil
}

// supports reports whether the sample is large enough for percentile p.
func (s sample) supports(p float64) bool {
	_, _, err := s.percentile(p)
	return err == nil
}

// mean returns the arithmetic mean, or NaN for an empty sample.
func (s sample) mean() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s sample) max() float64 {
	m := math.Inf(-1)
	for _, v := range s {
		m = math.Max(m, v)
	}
	return m
}
