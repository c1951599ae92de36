package main

import (
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail: the
// tail is the highest percentile the sample still supports.
const tailBeyond = 10

// summarize returns the median, the tail (the sample with exactly
// tailBeyond samples above it, or the maximum when there are fewer) and
// the percentile that tail sits at.
func summarize(samples []time.Duration) (p50, tail time.Duration, pct float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		p50 = s[n/2]
	} else {
		p50 = (s[n/2-1] + s[n/2]) / 2
	}
	idx := n - 1 - tailBeyond
	if idx < 0 {
		idx = n - 1
	}
	return p50, s[idx], 100 * float64(idx+1) / float64(n)
}

// medianDur is the median of a duration set (0 when empty).
func medianDur(samples []time.Duration) time.Duration {
	p50, _, _ := summarize(samples)
	return p50
}

// sumDur totals a duration set.
func sumDur(samples []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range samples {
		t += d
	}
	return t
}
