package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the least number of samples a reported percentile must
// leave above it; a p90 therefore needs at least 100 samples.
const minTail = 10

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("median of no samples")
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// percentile is the nearest-rank q-th percentile of xs (0 < q < 100):
// the sample at rank ceil(q/100·n). It refuses when fewer than minTail
// samples lie beyond that rank, because such a tail is a handful of
// outliers rather than a percentile.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%v of %d samples leaves %d beyond it, need %d", q, n, n-rank, minTail)
	}
	return sortedCopy(xs)[rank-1], nil
}

// geomean is the geometric mean of strictly positive values, so that
// each value weighs the same whatever its magnitude.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("geomean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("geomean of non-positive value %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mb converts bytes to mebibytes.
func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// mean is the arithmetic mean of xs, or 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
