package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of ascending xs:
// the smallest sample with at least a share p of the samples at or below it.
// It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median of unsorted xs, 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// samplesBeyond counts the samples of ascending xs strictly above their
// p-quantile.
func samplesBeyond(xs []float64, p float64) int {
	q := percentile(xs, p)
	return len(xs) - sort.Search(len(xs), func(i int) bool { return xs[i] > q })
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the exclusive method), so that the number
// printed here is the number the benchmark driver computes.
func quartileSpread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// unionLength is the total length covered by the half-open intervals
// [lo[i], hi[i]), clipped to [from, to).
func unionLength(iv [][2]int64, from, to int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		if x[0] < from {
			x[0] = from
		}
		if x[1] > to {
			x[1] = to
		}
		if x[1] > x[0] {
			clipped = append(clipped, x)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = from
	for _, x := range clipped {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}
