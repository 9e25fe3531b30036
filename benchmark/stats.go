package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of an ascending slice by
// the nearest-rank rule: the smallest value with at least q of the samples
// at or below it. An empty slice yields 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle of values (mean of the two middles for an even
// count) without reordering the caller's slice.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// mean returns the arithmetic mean of values (0 for none).
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads printed here are the ones the acceptance driver computes. It
// needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the inter-quartile distance as a share of the median, the
// run-to-run noise figure every bound is compared with.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 || len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

// sample is one request of a load phase.
type sample struct {
	at   time.Duration // when it was due (open) or sent (closed), from phase start
	lat  time.Duration // reply time minus at
	late time.Duration // open loop only: how long after at the send left
	ok   bool          // answered, and the answer matched the oracle
}

// latenciesMs returns the ascending latencies, in ms, of the ok samples
// whose at falls in [from, to).
func latenciesMs(samples []sample, from, to time.Duration) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && s.at >= from && s.at < to {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// windowedPercentile splits [0, dur) into equal windows, takes the
// q-quantile of each window's ok latencies and returns the median of those:
// one stall moves one window, not the metric. Empty windows are skipped.
func windowedPercentile(samples []sample, dur time.Duration, windows int, q float64) float64 {
	var per []float64
	step := dur / time.Duration(windows)
	for w := 0; w < windows; w++ {
		to := time.Duration(w+1) * step
		if w == windows-1 {
			to = time.Duration(math.MaxInt64) // stragglers past dur belong to the last window
		}
		if lat := latenciesMs(samples, time.Duration(w)*step, to); len(lat) > 0 {
			per = append(per, percentile(lat, q))
		}
	}
	return median(per)
}
