// Package metrics collects per-request outcomes during a simulation run and
// turns them into the throughput timelines and availability figures used by
// the performability methodology.
//
// The paper equates performance with throughput (requests successfully
// served per second) and availability with the percentage of requests served
// successfully; [Recorder] implements exactly those two measures, plus the
// timestamped marks (fault injected, fault detected, component repaired,
// server reset) that phase 2 uses to segment a timeline into stages.
//
// # One recorder per kernel
//
// A Recorder holds state for exactly one sim.Kernel and shares nothing
// package-wide, so concurrent experiment runs (the parallel campaign
// engine of internal/experiments) each own a private recorder; no
// cross-run synchronization is needed or provided.
//
// # Outputs
//
// [Recorder.Timeline] bins outcomes into per-second [Timeline] points —
// the paper's second-by-second throughput view — and [Timeline.Plot]
// renders it as an ASCII chart with the recorder's marks as vertical
// markers (cmd/faultinject's default output). [Recorder.Totals] and
// [Recorder.Availability] give the end-of-run aggregates.
//
// # Latency
//
// The recorder is also the one place per-second latency is binned. After
// [Recorder.TrackLatency], each bin holds a [vivo/internal/latency]
// histogram of its served requests' end-to-end latencies, and
// [Recorder.Settle] files an outcome and its latency in one bin at once.
// The latency queries read those bins: [Recorder.Window] and
// [Recorder.WindowUnder] merge a time window into quantiles or an SLO
// count (failures come from the bins' fail counts), the Total variants
// merge every bin, and [Recorder.LatencyTimeline] gives the per-bin
// percentiles. Without tracking no histogram is allocated.
//
// The recorder is deliberately coarse: it sees outcomes, not causes. For
// event-level visibility — which send stalled, when a heartbeat was
// missed, which node changed its membership view — wire a
// [vivo/internal/trace] sink to the same kernel; the two observability
// layers share the virtual clock, so a trace timestamp lines up exactly
// with a timeline bin.
package metrics
