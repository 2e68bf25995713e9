package trace

import "time"

// Category groups events by the layer of the stack that emitted them.
// The JSON writer maps categories to Perfetto tracks, so each node's
// process shows one lane per layer.
type Category uint8

const (
	// Sim marks kernel-level events (run windows, halts).
	Sim Category = iota
	// Substrate marks communication-layer events: sends, deliveries,
	// flow-control pushback, channel breaks.
	Substrate
	// Press marks server protocol events: send-path stalls, heartbeat
	// misses, membership changes.
	Press
	// Fault marks injector activity: injections and repairs.
	Fault
	// Request marks the client-request lifecycle: admission, service,
	// drops.
	Request

	numCategories
)

// String returns the category name used in trace output.
func (c Category) String() string {
	switch c {
	case Sim:
		return "sim"
	case Substrate:
		return "substrate"
	case Press:
		return "press"
	case Fault:
		return "fault"
	case Request:
		return "request"
	default:
		return "unknown"
	}
}

// Event names emitted by the simulation stack. They are ordinary strings —
// a sink must not assume the set is closed — but every emitter in this
// repository uses one of these, so queries and trace viewers can key on
// them.
const (
	// EvRun: the kernel entered a Run window (Arg = the until horizon in
	// nanoseconds of virtual time).
	EvRun = "run"

	// EvSend / EvRecv: one message crossed the substrate boundary
	// (Arg = payload bytes; Note carries the error, if any).
	EvSend = "send"
	EvRecv = "recv"
	// EvSendBlock: a kernel-buffered send hit a full socket buffer
	// (TCP's opaque pushback).
	EvSendBlock = "send-block"
	// EvCreditStall: a user-level send found no credits (VIA's visible
	// pushback).
	EvCreditStall = "credit-stall"
	// EvBreak / EvFatal: the channel broke, or reported an unrecoverable
	// error (Note carries the cause).
	EvBreak = "break"
	EvFatal = "fatal"

	// EvLoopBlock / EvLoopUnblock: the server's main loop blocked on (or
	// was released from) kernel-buffer pushback — the stall-cascade
	// mechanism of the paper's §5.
	EvLoopBlock   = "loop-block"
	EvLoopUnblock = "loop-unblock"
	// EvPeerDefer: a credit-managed send was deferred to the per-peer
	// queue (Arg = queue depth after the deferral).
	EvPeerDefer = "peer-defer"
	// EvHeartbeatMiss: the ring detector declared its predecessor dead
	// (Peer = the blamed node).
	EvHeartbeatMiss = "heartbeat-miss"
	// EvMembership: this node's membership view changed (Note carries
	// the trigger and the new view).
	EvMembership = "membership"

	// EvFaultInject / EvFaultHeal: the injector applied or repaired a
	// fault (Node = target, Note = fault name).
	EvFaultInject = "fault-inject"
	EvFaultHeal   = "fault-heal"

	// EvReqAdmit / EvReqServe / EvReqDrop: a client request entered the
	// server, completed, or was dropped (Arg = file id; Note carries the
	// drop reason).
	EvReqAdmit = "req-admit"
	EvReqServe = "req-serve"
	EvReqDrop  = "req-drop"

	// EvRequest: the client-side request lifecycle as an async duration
	// span (Ph = PhBegin at issue, PhEnd at settle; ID = the global
	// request id, Arg = file id, the end's Note = the outcome). Emitted
	// only when the run's recorder tracks latency, so plain traced runs
	// are unchanged.
	EvRequest = "request"
	// EvForwardServe: the service-node side of a forwarded request as an
	// async span under the same ID — together with EvRequest this renders
	// a per-request flame across nodes in Perfetto.
	EvForwardServe = "forward-serve"

	// EvOutQ / EvPeerQ: send-path queue depths as counter samples
	// (Ph = PhCounter, Arg = depth after the change). EvOutQ is the
	// kernel-buffer engine's single FIFO; EvPeerQ the credit engine's
	// total deferred backlog across peers.
	EvOutQ  = "outq-depth"
	EvPeerQ = "peerq-depth"
)

// Phase values for Event.Ph, a subset of the Chrome trace_event phases.
// The zero value is the thread-scoped instant every pre-existing emitter
// uses, so extending Event with Ph changed no existing trace output.
const (
	// PhInstant is the default: a thread-scoped instant ("i").
	PhInstant byte = 0
	// PhBegin / PhEnd delimit an async duration span ("b"/"e"); events
	// with the same ID pair up into one span, possibly across nodes.
	PhBegin byte = 'b'
	PhEnd   byte = 'e'
	// PhCounter samples a numeric series ("C"); Arg carries the value
	// (including zero — a queue draining to empty is a real sample).
	PhCounter byte = 'C'
)

// NoNode marks events that are not scoped to one cluster node (kernel
// run windows, switch faults). The JSON writer renders them under a
// synthetic "cluster" process.
const NoNode = -1

// Event is one timestamped instant in a simulation run. TS is virtual
// time (sim.Time is an alias for time.Duration, so this package needs no
// import of the kernel). Events carry plain values only — no pointers
// into live simulation state — so a sink may retain them indefinitely.
type Event struct {
	// TS is the virtual time of the event.
	TS time.Duration
	// Cat is the emitting layer.
	Cat Category
	// Name identifies the event kind (see the Ev constants).
	Name string
	// Node is the cluster node the event happened on, or NoNode.
	Node int
	// Peer is the remote node involved, or NoNode.
	Peer int
	// Arg is a numeric payload: message bytes, file id, queue depth.
	Arg int64
	// Note is optional free text: error strings, membership views,
	// fault names. Emitters only build it when tracing is enabled.
	Note string
	// Ph is the event phase (PhInstant, PhBegin, PhEnd, PhCounter). The
	// zero value is the instant phase, so emitters that predate spans
	// and counters need no change.
	Ph byte
	// ID correlates PhBegin/PhEnd pairs into one async span (the global
	// request id). Ignored for other phases.
	ID uint64
}

// Sink receives events in emission order. The simulation is
// single-threaded per kernel, so a sink is never called concurrently for
// one run; distinct runs must use distinct sinks.
type Sink interface {
	Record(Event)
}

// Tracer is the handle the simulation stack emits through. A nil *Tracer
// is the disabled state: Enabled reports false and Emit is a no-op, so
// every call site costs one pointer test when tracing is off. Construct
// an enabled tracer with New.
type Tracer struct {
	sink Sink
}

// New returns a tracer feeding sink. A nil sink yields a disabled tracer.
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// Enabled reports whether Emit will record anything. Call sites that
// build notes (fmt.Sprintf, err.Error) must check it first so the
// disabled path does no work.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event. Safe on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.sink.Record(e)
}
