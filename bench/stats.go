package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks. It sorts a copy; an empty input
// yields NaN so a missing series can never read as a fast one.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return percentile(xs, 0.75) - percentile(xs, 0.25)
}

// spread is the inter-quartile range as a share of the median — the
// run-to-run steadiness figure every table prints beside a value.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || math.IsNaN(m) {
		return 0
	}
	return iqr(xs) / math.Abs(m)
}

// fit2 solves t = fixed + slope·n through two measured points: the
// per-invocation fixed cost and the per-iteration cost of a layer.
func fit2(n1, t1, n2, t2 float64) (fixed, slope float64) {
	slope = (t2 - t1) / (n2 - n1)
	fixed = t1 - slope*n1
	return fixed, slope
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
