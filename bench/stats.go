package main

import (
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is what the repeatability criterion is stated
// in. Fewer than two values have no spread: all three cuts are the value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// percentileMS is the nearest-rank percentile of a latency sample, in ms.
// It sorts in place.
func percentileMS(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rank := int(p*float64(len(lat))+0.999999) - 1
	rank = max(0, min(rank, len(lat)-1))
	return ms(lat[rank])
}

func medianMS(lat []time.Duration) float64 {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = ms(d)
	}
	return median(xs)
}
