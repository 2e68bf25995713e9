package latency

import (
	"fmt"
	"strings"
	"time"
)

// Point is one bin of a latency timeline.
type Point struct {
	At     time.Duration // start of the bin
	Count  int64         // served requests settling in the bin
	Failed int64         // failed requests settling in the bin
	P50    time.Duration
	P95    time.Duration
	P99    time.Duration
	P999   time.Duration
}

// Timeline is the windowed percentile series, the latency companion to
// metrics.Timeline.
type Timeline struct {
	Bin    time.Duration
	Points []Point
}

// WorstP99 returns the largest per-bin p99 with its bin start — the tail
// spike a whole-run percentile averages away. Bins with fewer than
// minCount samples are ignored (a 1-sample bin's "p99" is noise).
func (tl Timeline) WorstP99(minCount int64) (time.Duration, time.Duration) {
	var at, worst time.Duration
	for _, p := range tl.Points {
		if p.Count >= minCount && p.P99 > worst {
			at, worst = p.At, p.P99
		}
	}
	return at, worst
}

// String renders the timeline as a fixed-width table (milliseconds), one
// row per bin — deterministic, so two identical runs render identically.
func (tl Timeline) String() string {
	var b strings.Builder
	b.WriteString("  time       n   fail      p50      p95      p99     p999\n")
	for _, p := range tl.Points {
		fmt.Fprintf(&b, "%6.0fs %6d %6d %8s %8s %8s %8s\n",
			p.At.Seconds(), p.Count, p.Failed,
			fmtMS(p.P50), fmtMS(p.P95), fmtMS(p.P99), fmtMS(p.P999))
	}
	return b.String()
}

// CSV renders "time_s,served,failed,p50_ms,p95_ms,p99_ms,p999_ms" rows
// with a header, ready for external plotting.
func (tl Timeline) CSV() string {
	var b strings.Builder
	b.WriteString("time_s,served,failed,p50_ms,p95_ms,p99_ms,p999_ms\n")
	for _, p := range tl.Points {
		fmt.Fprintf(&b, "%.0f,%d,%d,%.3f,%.3f,%.3f,%.3f\n",
			p.At.Seconds(), p.Count, p.Failed,
			float64(p.P50.Microseconds())/1e3, float64(p.P95.Microseconds())/1e3,
			float64(p.P99.Microseconds())/1e3, float64(p.P999.Microseconds())/1e3)
	}
	return b.String()
}
