package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of v (p in (0,1]): the
// smallest sample with at least p of the samples at or below it. An
// observed value, never an interpolation, so a latency percentile is a
// latency some query actually had.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// samplesBeyond is how many of n samples lie strictly beyond the
// nearest-rank percentile p.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

// tailPercentile is the highest of p50, p90, p99, p99.9 that still has
// at least ten of n samples beyond it — the tail a run of that length
// can resolve. At 100 samples that is p90, which is why every workload
// is sized for at least 100 timed queries.
func tailPercentile(n int) float64 {
	best := 0.5
	for _, p := range []float64{0.9, 0.99, 0.999} {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// median is the middle value (mean of the middle two for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), because that
// is the rule the acceptance protocol for this benchmark is written in.
// Fewer than two values have no spread: both quartiles are the value.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise a bound has to be read against.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / med)
}
