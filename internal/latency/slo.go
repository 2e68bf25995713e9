package latency

import "time"

// This file is the SLO side of the latency subsystem: counting how many
// requests finished at or under a latency threshold. The counts feed
// core's SLO performability extraction — the fraction-of-requests-under-
// SLO per model stage — through the same windowing primitives the
// percentile profiles use, so "stage C's SLO fraction" covers exactly the
// same time span as "stage C's p99".

// CountUnder returns how many served samples fell at or under d. The
// resolution is one histogram bucket: the whole bucket containing d
// counts as under, so the answer can overstate by at most the bucket's
// relative width (~3%). Integer-only, so two histograms built from the
// same multiset agree exactly.
func (h *Histogram) CountUnder(d time.Duration) int64 {
	us := d.Microseconds()
	if us < 0 {
		return 0
	}
	if us > maxValue {
		us = maxValue
	}
	idx := bucketIndex(us)
	var n int64
	for i := 0; i <= idx; i++ {
		n += h.counts[i]
	}
	return n
}

// SLOCount is one window's request accounting against a threshold.
type SLOCount struct {
	Under  int64 // served requests at or under the threshold
	Served int64
	Failed int64
}

// Total is the number of requests that settled in the window.
func (c SLOCount) Total() int64 { return c.Served + c.Failed }

// Fraction is Under / (Served + Failed). Failed requests violate the SLO
// by definition — the client saw a timeout or a refusal, strictly worse
// than a slow answer. An empty window reports 1.0: no request settled, so
// none violated (the caller weighs windows by duration or count, so an
// empty window never dominates a result).
func (c SLOCount) Fraction() float64 {
	if c.Total() == 0 {
		return 1
	}
	return float64(c.Under) / float64(c.Total())
}
