package metrics

import (
	"time"

	"vivo/internal/latency"
	"vivo/internal/sim"
)

// The latency side of the recorder: with tracking on, every bin that
// counts served and failed requests also holds a histogram of the served
// requests' end-to-end latencies, so a settle touches one bin once.
// Without tracking the histograms are never allocated, and runs that
// never asked for latency (the golden baseline, every pre-existing
// experiment) are bit-for-bit unchanged. Whole-run results merge the
// bins; merging fixed bucket arrays is order-independent, so every
// answer depends only on the samples, never on evaluation order.

// TrackLatency switches on per-bin latency histograms. Call it before
// the run records anything: samples settled earlier were never kept.
func (r *Recorder) TrackLatency() {
	if r.lat != nil {
		return
	}
	r.lat = make([]*latency.Histogram, len(r.ok))
	for i := range r.lat {
		r.lat[i] = &latency.Histogram{}
	}
}

// TracksLatency reports whether TrackLatency was called.
func (r *Recorder) TracksLatency() bool { return r.lat != nil }

// merge adds the bins whose start lies in [from, to) into h and returns
// their failure count.
func (r *Recorder) merge(h *latency.Histogram, from, to sim.Time) (failed int64) {
	for i, b := range r.lat {
		at := time.Duration(i) * r.bin
		if at >= from && at < to {
			h.Merge(b)
			failed += r.fail[i]
		}
	}
	return failed
}

// end is the time just past the last bin.
func (r *Recorder) end() sim.Time { return time.Duration(len(r.ok)) * r.bin }

// Window merges the bins whose start lies in [from, to) and returns their
// latency quantiles, with Failed read from the same bins — the per-stage
// latency profile primitive.
func (r *Recorder) Window(from, to sim.Time) latency.Quantiles {
	var h latency.Histogram
	failed := r.merge(&h, from, to)
	q := h.Quantiles()
	q.Failed = failed
	return q
}

// WindowUnder counts the bins whose start lies in [from, to) against the
// threshold slo — the SLO companion of Window.
func (r *Recorder) WindowUnder(from, to sim.Time, slo time.Duration) latency.SLOCount {
	var h latency.Histogram
	failed := r.merge(&h, from, to)
	return sloCount(&h, slo, failed)
}

// Total returns the whole-run latency histogram (served requests only).
func (r *Recorder) Total() *latency.Histogram {
	h := &latency.Histogram{}
	r.merge(h, 0, r.end())
	return h
}

// TotalQuantiles summarises the whole run's latencies.
func (r *Recorder) TotalQuantiles() latency.Quantiles { return r.Window(0, r.end()) }

// TotalUnder counts the whole run against the threshold slo.
func (r *Recorder) TotalUnder(slo time.Duration) latency.SLOCount {
	return r.WindowUnder(0, r.end(), slo)
}

// WorstWindowUnder scans the per-bin fractions and returns the worst
// (lowest) one with its bin start — the SLO analogue of WorstP99. Bins
// with fewer than minTotal settled requests are skipped as noise. When no
// bin qualifies the fraction is 1 at time 0.
func (r *Recorder) WorstWindowUnder(slo time.Duration, minTotal int64) (at sim.Time, frac float64) {
	frac = 1
	for i, h := range r.lat {
		c := sloCount(h, slo, r.fail[i])
		if c.Total() < minTotal {
			continue
		}
		if f := c.Fraction(); f < frac {
			at, frac = time.Duration(i)*r.bin, f
		}
	}
	return at, frac
}

func sloCount(h *latency.Histogram, slo time.Duration, failed int64) latency.SLOCount {
	return latency.SLOCount{Under: h.CountUnder(slo), Served: h.Count(), Failed: failed}
}

// LatencyTimeline evaluates every bin's percentiles.
func (r *Recorder) LatencyTimeline() latency.Timeline {
	pts := make([]latency.Point, len(r.lat))
	for i, h := range r.lat {
		pts[i] = latency.Point{
			At:     time.Duration(i) * r.bin,
			Count:  h.Count(),
			Failed: r.fail[i],
			P50:    h.Quantile(0.50),
			P95:    h.Quantile(0.95),
			P99:    h.Quantile(0.99),
			P999:   h.Quantile(0.999),
		}
	}
	return latency.Timeline{Bin: r.bin, Points: pts}
}
