package main

import (
	"math"
	"sort"
)

// tailQuantile is the percentile lat_tail_ms reports. fig7-tight
// completes about 40 ops per run (five passes over eight ~0.8 s
// instances), and p75 is the highest percentile that still leaves ten
// samples beyond it there; every workload runs at least minOps ops.
const (
	tailQuantile = 0.75
	tailUnit     = "ms_p75"
	minOps       = 40
)

// quantile is the nearest-rank order statistic: the value at rank
// ceil(q·n), so n − ceil(q·n) samples lie beyond it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the midpoint median (the mean of the two middle values
// for even n), used where no sample count is tied to the result.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not
// exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
