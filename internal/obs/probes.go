package obs

import (
	"vivo/internal/metrics"
	"vivo/internal/trace"
)

// Throughput captures the run's per-second throughput timeline with its
// marks — the phase-1 primary measurement. It costs nothing to attach:
// the harness's recorder is always running; this probe just snapshots it.
type Throughput struct {
	// Timeline is filled at finalize.
	Timeline metrics.Timeline
}

// Attach implements Probe.
func (p *Throughput) Attach(*Runtime) {}

// Finalize implements Probe.
func (p *Throughput) Finalize(run *Run) { p.Timeline = run.Rec.Timeline() }

// Latency turns on end-to-end latency tracking (connect attempt to final
// byte) in the run's recorder, whose per-second bins then each hold a
// histogram next to their served and failed counts; read it from
// Run.Rec. Attaching it also switches on the per-request trace spans
// (EvRequest begin/end) when the run is traced — the workload emits them
// only when its recorder tracks latency.
type Latency struct{}

// Attach implements Probe.
func (Latency) Attach(rt *Runtime) { rt.Rec.TrackLatency() }

// Finalize implements Probe.
func (Latency) Finalize(*Run) {}

// QueueDepth aggregates the send-path queue-depth counter events into
// per-series maxima and sample counts: EvOutQ (the kernel-buffer
// engine's FIFO) and EvPeerQ (the credit engine's total deferred
// backlog). The counters are emitted per node; this probe tracks the
// cluster-wide worst, the headline congestion number.
type QueueDepth struct {
	// MaxOut / MaxPeer are the largest observed depths.
	MaxOut, MaxPeer int64
	// OutSamples / PeerSamples count the samples seen.
	OutSamples, PeerSamples int64
}

// Attach implements Probe.
func (p *QueueDepth) Attach(rt *Runtime) { rt.Tee(depthSink{p}) }

// Finalize implements Probe.
func (p *QueueDepth) Finalize(*Run) {}

type depthSink struct{ p *QueueDepth }

func (ds depthSink) Record(e trace.Event) {
	if e.Ph != trace.PhCounter {
		return
	}
	switch e.Name {
	case trace.EvOutQ:
		ds.p.OutSamples++
		if e.Arg > ds.p.MaxOut {
			ds.p.MaxOut = e.Arg
		}
	case trace.EvPeerQ:
		ds.p.PeerSamples++
		if e.Arg > ds.p.MaxPeer {
			ds.p.MaxPeer = e.Arg
		}
	}
}
