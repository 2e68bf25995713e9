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
// arena beside a pointer-free binary heap of (time, sequence, slot)
// entries. Cancel is eager: it removes the entry from the heap at once
// and frees the slot, so the heap holds only live events and
// [Kernel.Pending] is its length, O(1). Each slot carries a generation
// that changes whenever the slot is freed; a handle remembers the
// generation it was issued with, so cancelling a handle whose event
// already fired or was cancelled is a no-op even after the slot has been
// reused by a newer event. Scheduling allocates nothing once the arena
// has grown to the peak number of live events.
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
