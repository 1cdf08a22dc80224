package main

import "time"

// openLoop issues n operations on a fixed schedule, whether or not earlier
// ones have finished being useful to anyone: op i is due at due(i). op
// receives its due time and must time its latency from there, not from
// when it was actually started — a stall then shows up as latency on every
// operation queued behind it instead of silently thinning the load. The
// returned lags are how late the generator itself ran (start − due) per
// operation; a lag that is a large share of the period means the benchmark,
// not the program, was saturated.
func openLoop(n int, due func(i int) time.Time, op func(i int, due time.Time) error) ([]time.Duration, error) {
	lags := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		d := due(i)
		if wait := time.Until(d); wait > 0 {
			time.Sleep(wait)
		}
		lags = append(lags, time.Since(d))
		if err := op(i, d); err != nil {
			return lags, err
		}
	}
	return lags, nil
}
