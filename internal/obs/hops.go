package obs

import (
	"time"

	"vivo/internal/metrics"
	"vivo/internal/sim"
	"vivo/internal/trace"
)

// Hops decomposes each served request's end-to-end time into per-hop
// latencies, correlated from the trace's request-lifecycle events by the
// global request id:
//
//   - accept-queue: client issue (EvRequest begin) to server admission
//     (EvReqAdmit) — connect plus the accept-queue wait.
//   - forward: admission to the service node starting work
//     (EvForwardServe begin) — the intra-cluster forward decision, wire
//     time and remote queueing. Locally-served requests have no forward
//     hop.
//   - serve: the service work itself — the EvForwardServe span for
//     forwarded requests, admission to completion (EvReqServe) for local
//     ones.
//
// Each hop lands in its own latency-tracking metrics.Recorder, filed at
// the timestamp of the trace event that completes the hop, so the hop
// profiles window and segment exactly like the end-to-end recorder.
//
// Hops is a trace sink: pass it to Harness.Run with Harness.Latency set.
// The request begin/end spans it correlates on are emitted only when the
// run's recorder tracks latency; without it the hop recorders stay empty.
// Samples are recorded only for requests still unsettled at the hop — a
// hop completing after the client gave up is not a client-visible
// latency.
type Hops struct {
	// Accept, Forward, Serve are the per-hop recorders. They are fed only
	// through Settle, which carries its own timestamp, so they need no
	// kernel.
	Accept, Forward, Serve *metrics.Recorder

	state map[uint64]*hopState
}

// NewHops returns an empty hop decomposition, ready to be passed to
// Harness.Run.
func NewHops() *Hops {
	return &Hops{
		Accept:  hopRecorder(),
		Forward: hopRecorder(),
		Serve:   hopRecorder(),
		state:   make(map[uint64]*hopState),
	}
}

func hopRecorder() *metrics.Recorder {
	r := metrics.NewRecorder(nil, time.Second)
	r.TrackLatency()
	return r
}

type hopState struct {
	birth     sim.Time
	admitAt   sim.Time
	fwdAt     sim.Time
	admitted  bool
	forwarded bool
}

// Record implements trace.Sink. It correlates the request-lifecycle
// events by per-id map lookups only — no iteration — so the correlation
// is deterministic, and entries die with their request's end event,
// bounding the state to the in-flight window.
func (p *Hops) Record(e trace.Event) {
	switch e.Name {
	case trace.EvRequest:
		switch e.Ph {
		case trace.PhBegin:
			p.state[e.ID] = &hopState{birth: e.TS}
		case trace.PhEnd:
			delete(p.state, e.ID)
		}
	case trace.EvReqAdmit:
		if st, ok := p.state[e.ID]; ok && !st.admitted {
			st.admitted = true
			st.admitAt = e.TS
			p.Accept.Settle(e.TS, metrics.Served, e.TS-st.birth)
		}
	case trace.EvForwardServe:
		st, ok := p.state[e.ID]
		if !ok {
			return
		}
		switch e.Ph {
		case trace.PhBegin:
			if st.admitted && !st.forwarded {
				st.forwarded = true
				st.fwdAt = e.TS
				p.Forward.Settle(e.TS, metrics.Served, e.TS-st.admitAt)
			}
		case trace.PhEnd:
			if st.forwarded {
				p.Serve.Settle(e.TS, metrics.Served, e.TS-st.fwdAt)
			}
		}
	case trace.EvReqServe:
		if st, ok := p.state[e.ID]; ok && st.admitted && !st.forwarded {
			p.Serve.Settle(e.TS, metrics.Served, e.TS-st.admitAt)
		}
	}
}
