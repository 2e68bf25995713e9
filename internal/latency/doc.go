// Package latency is the kernel-free library behind end-to-end request
// latency — client connect to final byte, including queueing,
// intra-cluster forwarding and the robust-layer's send retries. It turns
// samples into deterministic percentile reports: mergeable histograms
// ([Histogram]), the standard report percentiles ([Quantiles]), counts
// against an SLO threshold ([SLOCount]) and the rendering of windowed
// p50/p95/p99/p999 timelines ([Timeline]).
//
// It keeps no clock and no bins of its own. The per-second binning lives
// in metrics.Recorder, the one per-second recorder: with latency
// tracking on, each of its bins holds a Histogram next to its served and
// failed counts, and its Window, WindowUnder and LatencyTimeline queries
// merge and render them with this package. The workload generator
// stamps each request's birth time, and the recorder files the
// settle-time delta, so a latency is exactly the virtual time between
// Clients.issue and the request's single settle call. Failed requests
// are counted, not mixed into the percentile population.
//
// Everything is built for bit-identical reproducibility under
// Options.Parallel: histograms are fixed log-scale bucket arrays with
// integer-only index/quantile math (see histogram.go), merging is
// element-wise addition (order-independent), and recording neither draws
// randomness nor schedules events, so tracking latency cannot perturb
// the simulation it observes. TestLatencyDeterministic pins the first
// property; the tracediff test in internal/experiments pins the second.
package latency
