package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vivo/internal/latency"
	"vivo/internal/sim"
)

// Outcome classifies how a client request ended.
type Outcome int

const (
	// Served means the full response reached the client in time.
	Served Outcome = iota
	// ConnectTimeout means the client could not establish a connection
	// within its connect deadline (2 s in the paper's setup).
	ConnectTimeout
	// RequestTimeout means the connection succeeded but the response did
	// not complete within the request deadline (6 s in the paper).
	RequestTimeout
	// Refused means the server actively rejected the request.
	Refused
)

// String returns the outcome name used in reports.
func (o Outcome) String() string {
	switch o {
	case Served:
		return "served"
	case ConnectTimeout:
		return "connect-timeout"
	case RequestTimeout:
		return "request-timeout"
	case Refused:
		return "refused"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Mark is a timestamped annotation of a run: fault injection and recovery
// times, detection and reconfiguration instants, operator actions.
type Mark struct {
	At    sim.Time
	Label string
}

// Recorder accumulates request outcomes into fixed-width time bins.
// With latency tracking on (TrackLatency), each bin also holds a
// histogram of its served requests' end-to-end latencies; latency.go
// holds the queries over them. The zero value is not usable; construct
// with NewRecorder.
type Recorder struct {
	k     *sim.Kernel
	bin   time.Duration
	ok    []int64              // per-bin served counts
	fail  []int64              // per-bin failed counts
	lat   []*latency.Histogram // per-bin served latencies; nil unless tracking
	marks []Mark

	totalOK   int64
	totalFail int64
	byOutcome [4]int64 // cumulative count per Outcome value
}

// NewRecorder returns a recorder that bins outcomes into windows of width
// bin (1 s reproduces the paper's figures).
func NewRecorder(k *sim.Kernel, bin time.Duration) *Recorder {
	if bin <= 0 {
		panic("metrics: bin width must be positive")
	}
	return &Recorder{k: k, bin: bin}
}

// BinWidth returns the configured bin width.
func (r *Recorder) BinWidth() time.Duration { return r.bin }

// Record files one request outcome at the current virtual time.
func (r *Recorder) Record(o Outcome) { r.count(r.slot(r.k.Now()), o) }

// Settle files one request outcome at virtual time at and, when latency
// tracking is on and the request was served, its end-to-end latency d in
// the same bin. Failed requests are counted, never mixed into the
// percentile population: their "latency" is a client timeout, not a
// service time. The settle instant, not the birth, picks the bin.
func (r *Recorder) Settle(at sim.Time, o Outcome, d time.Duration) {
	i := r.slot(at)
	r.count(i, o)
	if o == Served && r.lat != nil {
		r.lat[i].Observe(d)
	}
}

// slot returns the bin index of virtual time at, growing the bins to
// reach it.
func (r *Recorder) slot(at sim.Time) int {
	idx := int(at / r.bin)
	for len(r.ok) <= idx {
		r.ok = append(r.ok, 0)
		r.fail = append(r.fail, 0)
		if r.lat != nil {
			r.lat = append(r.lat, &latency.Histogram{})
		}
	}
	return idx
}

func (r *Recorder) count(idx int, o Outcome) {
	if o == Served {
		r.ok[idx]++
		r.totalOK++
	} else {
		r.fail[idx]++
		r.totalFail++
	}
	if int(o) >= 0 && int(o) < len(r.byOutcome) {
		r.byOutcome[o]++
	}
}

// MarkNow records an annotation at the current virtual time.
func (r *Recorder) MarkNow(label string) {
	r.marks = append(r.marks, Mark{At: r.k.Now(), Label: label})
}

// Marks returns all annotations in insertion order.
func (r *Recorder) Marks() []Mark { return append([]Mark(nil), r.marks...) }

// MarkTime returns the time of the first mark with the given label.
func (r *Recorder) MarkTime(label string) (sim.Time, bool) {
	for _, m := range r.marks {
		if m.Label == label {
			return m.At, true
		}
	}
	return 0, false
}

// Totals returns the cumulative served and failed request counts.
func (r *Recorder) Totals() (served, failed int64) { return r.totalOK, r.totalFail }

// OutcomeCount returns the cumulative count of one outcome class. The
// chaos conservation oracle checks that the per-outcome counts decompose
// the totals exactly: served + refused + connect-timeout + request-timeout
// must equal every request ever issued, nothing silently lost.
func (r *Recorder) OutcomeCount(o Outcome) int64 {
	if int(o) < 0 || int(o) >= len(r.byOutcome) {
		return 0
	}
	return r.byOutcome[o]
}

// Availability returns the fraction of requests served successfully over
// the whole run. It returns 1 for an empty run.
func (r *Recorder) Availability() float64 {
	total := r.totalOK + r.totalFail
	if total == 0 {
		return 1
	}
	return float64(r.totalOK) / float64(total)
}

// Timeline returns the throughput series: for each bin, the number of
// successfully served requests divided by the bin width in seconds.
func (r *Recorder) Timeline() Timeline {
	pts := make([]Point, len(r.ok))
	secs := r.bin.Seconds()
	for i := range r.ok {
		pts[i] = Point{
			At:         time.Duration(i) * r.bin,
			Throughput: float64(r.ok[i]) / secs,
			Failures:   float64(r.fail[i]) / secs,
		}
	}
	return Timeline{Bin: r.bin, Points: pts, Marks: r.Marks()}
}

// Point is one bin of a throughput timeline.
type Point struct {
	At         sim.Time // start of the bin
	Throughput float64  // served requests per second
	Failures   float64  // failed requests per second
}

// Timeline is a throughput-vs-time series with annotations, the unit of
// data behind each of the paper's per-fault figures.
type Timeline struct {
	Bin    time.Duration
	Points []Point
	Marks  []Mark
}

// MeanThroughput returns the average served throughput between from and to
// (bins whose start lies in [from, to)). It returns 0 for an empty window.
func (tl Timeline) MeanThroughput(from, to sim.Time) float64 {
	sum, n := 0.0, 0
	for _, p := range tl.Points {
		if p.At >= from && p.At < to {
			sum += p.Throughput
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// End returns the time just past the last bin.
func (tl Timeline) End() sim.Time {
	return time.Duration(len(tl.Points)) * tl.Bin
}

// String renders the timeline as a compact two-column table with marks
// interleaved, convenient for the CLI tools and examples.
func (tl Timeline) String() string {
	var b strings.Builder
	marks := append([]Mark(nil), tl.Marks...)
	sort.SliceStable(marks, func(i, j int) bool { return marks[i].At < marks[j].At })
	mi := 0
	for _, p := range tl.Points {
		for mi < len(marks) && marks[mi].At < p.At+tl.Bin {
			fmt.Fprintf(&b, "%8s  -- %s --\n", fmtDur(marks[mi].At), marks[mi].Label)
			mi++
		}
		fmt.Fprintf(&b, "%8s  %8.1f req/s\n", fmtDur(p.At), p.Throughput)
	}
	for ; mi < len(marks); mi++ {
		fmt.Fprintf(&b, "%8s  -- %s --\n", fmtDur(marks[mi].At), marks[mi].Label)
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.0fs", d.Seconds())
}

// CSV renders the timeline as "seconds,served_per_s,failed_per_s" rows
// with a header, ready for external plotting.
func (tl Timeline) CSV() string {
	var b strings.Builder
	b.WriteString("time_s,served_per_s,failed_per_s\n")
	for _, p := range tl.Points {
		fmt.Fprintf(&b, "%.0f,%.1f,%.1f\n", p.At.Seconds(), p.Throughput, p.Failures)
	}
	return b.String()
}
