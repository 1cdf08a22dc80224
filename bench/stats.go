package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail may be reported at, highest
// first. A timing is reported as its median plus the highest of these that
// still has minBeyond samples above it, so a tail is never one or two
// outliers wearing a percentile's name.
var tailCandidates = []float64{99, 95, 90, 75}

const minBeyond = 10

// dist summarizes one set of timing samples.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"` // 50 when the sample supports no tail
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

// summarize reports the median and the highest supported tail percentile of
// samples. With too few samples for any candidate the tail repeats the
// median (TailPct 50), so callers always have a value and the sample count
// says how much it is worth.
func summarize(samples []float64) dist {
	if len(samples) == 0 {
		return dist{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: percentile(s, 50), Min: s[0], Max: s[len(s)-1]}
	d.Tail, d.TailPct = d.P50, 50
	for _, p := range tailCandidates {
		if len(s)-rank(len(s), p) >= minBeyond {
			d.Tail, d.TailPct = percentile(s, p), p
			break
		}
	}
	return d
}

// rank is the nearest-rank position (1-based) of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100)) // p*n first: exact for whole p
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile of an ascending slice; the
// median of an even count is the mean of the two middle samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p == 50 && n%2 == 0 {
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return sorted[rank(n, p)-1]
}

func median(samples []float64) float64 { return summarize(samples).P50 }

// percentileOf is percentile for samples in any order.
func percentileOf(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
