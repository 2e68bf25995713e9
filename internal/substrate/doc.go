// Package substrate defines the service-provider interface between a
// cluster service and its intra-cluster communication layer.
//
// The paper's central experiment holds the server constant and swaps the
// communication architecture underneath it (kernel TCP vs user-level VIA,
// Table 1); this package is that seam made explicit. A substrate supplies
// one [Transport] per node — a factory for [PeerConn] channels to other
// nodes — and reports events through [Callbacks]. Everything the service
// observes about the substrate flows through these three types: send
// errors (flow-control pushback, synchronous faults), delivery (including
// corruption), channel breaks, and fatal errors. The *error semantics*
// carried by those calls are exactly what distinguishes the substrates:
// TCP hides faults behind timeout-and-retry and surfaces minute-scale
// breaks, VIA fail-stops a channel in about a second.
//
// # Specs
//
// A [Spec] is a value that builds a node's transport. Implementations
// live in subpackages (substrate/tcp, substrate/via), and each one's
// options type is its Spec: a service carries the value in its
// configuration and calls [Spec.NewTransport] once per node. Adding a
// communication layer means adding one such options type; the service
// core does not change. The import boundary is enforced by arch tests
// (the service core imports only this package, never a protocol
// simulator directly).
//
// # Delivery records
//
// A [Delivered] is valid from the OnMessage call until the service calls
// its Release, and no longer: Buf is the substrate's delivery record,
// which Release hands back to a free list for the next message. A
// service that reads a message after releasing it (its kind, its payload,
// the Corrupt flag inside a deferred task) copies those out first. Each
// message is delivered exactly once, so once a service has read a
// payload it may recycle that too.
//
// # Tracing
//
// Adapters thread the stack's event tracing through two helpers:
// [TraceSend] records the outcome of every Send call (distinguishing
// TCP's opaque kernel-buffer pushback from VIA's visible credit
// exhaustion by event name), and [TraceBind] wraps a service's Callbacks
// so deliveries, breaks and fatal errors are traced before the service
// reacts. Both are free when the kernel carries no tracer, and any new
// substrate gets uniform observability by calling them from its adapter.
package substrate
