package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of xs (q in (0, 1]): the
// smallest sample with at least a q share of the samples at or below it.
// It reports a sample that was actually measured, never an interpolation,
// and is 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}
