package main

import (
	"math"
	"sort"
)

// median of xs; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quieter returns the half of xs that took the least time, the middle
// one included. It is for repetitions of one input: there a shared host
// only ever adds time — a stolen core, a neighbour's cache traffic — and
// it does so in bursts that can cover most of one run and none of the
// next, which moved a median over all ops by a third between two runs of
// the same code. The half the host disturbed least carries the timing
// metrics instead; every op is still checked and counted.
func quieter[T any](xs []T, seconds func(T) float64) []T {
	s := append([]T(nil), xs...)
	sort.SliceStable(s, func(i, j int) bool { return seconds(s[i]) < seconds(s[j]) })
	return s[:(len(s)+1)/2]
}

// tailSamples is how many samples must lie beyond a percentile before
// it is reported (choosing-metrics: "the highest percentile that has at
// least ten samples beyond it").
const tailSamples = 10

// tail returns the nearest-rank p-quantile of xs when at least
// tailSamples observations lie beyond it, and otherwise the highest
// quantile the sample does support — which for fewer than 2·tailSamples
// observations is the median. Workloads whose op count is a handful
// therefore report their median under the tail metric's name instead of
// a max dressed up as a percentile.
func tail(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if supported := 1 - float64(tailSamples)/float64(n); p > supported {
		p = supported
	}
	if p <= 0.5 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n))) - 1
	return s[rank]
}
