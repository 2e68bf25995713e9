// Package sim provides a deterministic discrete-event simulation kernel.
//
// All other packages in this repository — the cluster hardware model, the
// TCP and VIA protocol simulators, the PRESS server, the workload generator
// and the fault injector — are built as event handlers scheduled on a single
// [Kernel]. The kernel owns virtual time: an experiment that spans ten
// minutes of simulated time typically executes in well under a second of
// wall time, and two runs with the same seed produce bit-identical results.
//
// # Determinism
//
// Three rules make every run reproducible. First, the kernel is
// single-threaded: handlers run one at a time, in timestamp order, with
// scheduling-order sequence numbers breaking timestamp ties. Second, all
// randomness comes from the kernel's seeded stream ([Kernel.Rand]) — model
// code never touches the global rand. Third, nothing observes wall-clock
// time; [Time] is an alias for time.Duration measured from simulation
// start, so the usual constants (time.Second, 15*time.Minute) read
// naturally. Parallelism in this repository happens only *across* kernels:
// each experiment builds a private kernel, which is why campaigns are
// bit-identical at any worker count.
//
// # Scheduling
//
// [Kernel.At] and [Kernel.After] schedule callbacks and return [Event]
// handles that can be cancelled until they fire — the idiom for timeouts
// that are usually not hit. [Kernel.Run] executes until a horizon,
// [Kernel.RunAll] until the queue drains, [Kernel.Step] single-steps.
// Scheduling in the past panics: it is always a model bug.
//
// An [Event] is a small value, not a pointer: a timer field holds one
// directly, and its zero value means "no event", so [Event.Cancel] and
// [Event.Pending] need no nil check. Callbacks live in a free-listed slot
// arena beside two pointer-free binary heaps of (time, sequence, slot)
// entries. Cancel is eager: it removes the entry from its heap at once
// and frees the slot, so the heaps hold only live events and
// [Kernel.Pending] is the sum of their lengths, O(1). Each slot carries a
// generation that changes whenever the slot is freed; a handle remembers
// the generation it was issued with, so cancelling a handle whose event
// already fired or was cancelled is a no-op even after the slot has been
// reused by a newer event. Scheduling allocates nothing once the arena
// and the heaps have grown to their peak number of live events.
//
// The two heaps are tiers. [Kernel.At] puts an event due less than a
// fixed split (16 ms) ahead in the near heap and any later one in the far
// heap, and records the tier in the slot beside the entry's position, so
// Cancel and [Event.When] find it directly. The model's events fall on
// either side of that split with almost nothing near it: hops of µs to a
// few ms on one side; on the other, long timers — the clients' 6 s and
// 2 s timeouts, TCP's ~200 ms RTO, heartbeats — that are mostly
// cancelled before they fire. A saturated server keeps thousands of
// those armed, and in one heap every hop would sift through the levels
// they fill; the near heap holds about a dozen entries. Splitting
// changes no firing order: the next event is whichever of the two tops
// comes first by (time, sequence), exactly the event one heap would pop,
// so ties still fire in scheduling order even across tiers, and every
// run is the same event for event.
//
// # Hot callbacks
//
// The kernel allocates nothing per event, so what a run allocates is the
// callbacks its callers build: a capturing func literal, or a method value
// such as c.complete, is heap-allocated each time it is evaluated. Code
// that schedules the same callback again and again therefore binds it
// once, in a field set when its owner is made, and keeps the per-event
// state a closure would have captured in fields of that owner. An owner
// with at most one event pending needs only fields: [Ticker] re-arms one
// tick, the cluster CPU one completion (with the task's start time in a
// field), a TCP connection one RTO callback, the client workload one
// Poisson arrival. An owner with many events pending keeps a free list of
// records, each with its callbacks bound when the record is first made:
// packets in flight in the cluster, pending messages in a VIA interface,
// VIA deliveries awaiting their delivery time, disk reads, the PRESS
// server's CPU tasks and the clients' request timeouts. A record goes
// back on its list only once its event has fired or been cancelled, so a
// stale event never runs against a reused record.
//
// The same lists carry data that would otherwise be boxed into an
// interface per message. A pointer stored in an `any` allocates nothing,
// so protocol frames, delivery records and application payloads travel
// as pointers to recycled records: a frame is owned by the stack or NIC
// that sent it, a delivery by the receiver, a PRESS payload by the
// deployment. Whoever consumes a record copies out what it still needs
// and only then returns it (a handler it calls may take the same record
// for its own next message); the record must be one nothing can reach
// any more, so a message the protocol may deliver again cannot have its
// payload recycled. A record dropped on a failure path — a packet lost
// in the fabric, work discarded by a crash — is simply left to the
// garbage collector. Tests pin these paths with testing.AllocsPerRun:
// zero allocations per message on either substrate, and only the
// workload.Request itself per served client request.
//
// # Observability
//
// The kernel also carries the stack's tracer ([Kernel.SetTracer],
// [Kernel.Tracer]): because every model component already holds the
// kernel, it is the natural place to plumb a [vivo/internal/trace.Tracer]
// without threading it through each constructor. A nil tracer (the
// default) disables tracing at the cost of one pointer test per emission
// site.
//
//	k := sim.New(42)
//	k.After(time.Second, func() { fmt.Println("fires at t=1s") })
//	k.Run(time.Minute)
package sim
