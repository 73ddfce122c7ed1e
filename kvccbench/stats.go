package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a workload's tail may be reported
// at. A run reports the highest one that still has at least ten samples
// beyond it, so the tail is never an extrapolation from a handful of
// requests. The list stops at p99: serve-hot's p99.9 (about twenty
// samples beyond it) moved by 45% (quartile spread over median) across
// ten seeds on a VM with host steal, too much to bound a regression by.
var tailCandidates = []float64{90, 95, 99}

// tailPercentile picks the tail percentile for n samples: the highest
// candidate p with n*(100-p)/100 >= 10, or the median when n < 100.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs (unsorted;
// not modified). Failed requests enter as +Inf, so they count as missing
// every latency limit. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	r = max(1, min(r, len(s)))
	return s[r-1]
}

// quartiles returns Q1, the median and Q3 of xs by the same exclusive
// method as Python's statistics.quantiles(xs, n=4), so the steadiness
// report matches that common tool. xs must not be empty.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
