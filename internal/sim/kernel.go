package sim

import (
	"fmt"
	"math/rand"
	"time"

	"vivo/internal/trace"
)

// Time is an instant in virtual time, expressed as the offset from the start
// of the simulation. It deliberately reuses time.Duration so the usual
// constants (time.Second, 15*time.Minute, ...) read naturally.
type Time = time.Duration

// Event is a handle to a scheduled callback. It can be cancelled until it
// fires. Handles are small values: copy them freely. The zero Event is a
// handle to no event, so an unset timer field needs no nil check.
//
// A handle names an arena slot plus the slot's generation at scheduling
// time. Firing or cancelling the event frees the slot and bumps the
// generation, so a stale handle — even one whose slot now holds a newer
// event — is simply no longer Pending.
type Event struct {
	k    *Kernel
	slot int32
	gen  uint32
}

// Pending reports whether the event is still scheduled: it has neither
// fired nor been cancelled. Inside its own callback an event is no longer
// pending.
func (e Event) Pending() bool {
	return e.k != nil && e.k.slots[e.slot].gen == e.gen
}

// Cancel removes the event from the queue so it never fires. Cancelling an
// event that already fired or was already cancelled, or the zero Event, is
// a no-op.
func (e Event) Cancel() {
	if !e.Pending() {
		return
	}
	k := e.k
	k.remove(int(k.slots[e.slot].index))
	k.release(e.slot)
}

// When returns the virtual time a pending event is scheduled to fire at,
// or zero if it is not pending.
func (e Event) When() Time {
	if !e.Pending() {
		return 0
	}
	return e.k.heap[e.k.slots[e.slot].index].at
}

// Kernel is a deterministic discrete-event scheduler. It is not safe for
// concurrent use: the simulation model is single-threaded by design, which
// is what makes runs reproducible.
type Kernel struct {
	now     Time
	heap    []entry // min-heap on (at, seq); holds no pointers
	slots   []slot  // callback arena, indexed by entry.slot and Event.slot
	free    []int32 // indices of unused slots
	seq     uint64
	rng     *rand.Rand
	stopped bool
	trc     *trace.Tracer

	// Processed counts events executed since the kernel was created.
	// It is exported read-only via Steps.
	processed uint64
}

// New returns a kernel whose clock reads zero and whose random stream is
// seeded with seed. The same seed always yields the same simulation.
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random stream. All model code
// must draw randomness from here, never from the global rand, so that runs
// are reproducible.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Steps returns the number of events executed so far.
func (k *Kernel) Steps() uint64 { return k.processed }

// SetTracer installs the trace destination for this kernel. The kernel is
// where every model component already meets, so it carries the tracer for
// the whole stack; nil (the default) disables tracing. Emission never
// draws randomness and never schedules events, so the tracer cannot
// affect simulation behaviour.
func (k *Kernel) SetTracer(t *trace.Tracer) { k.trc = t }

// Tracer returns the installed tracer; a nil result is a valid, disabled
// tracer (trace.Tracer methods are nil-safe).
func (k *Kernel) Tracer() *trace.Tracer { return k.trc }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it is always a model bug.
func (k *Kernel) At(t Time, fn func()) Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v which is before now %v", t, k.now))
	}
	var s int32
	if n := len(k.free); n > 0 {
		s = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		s = int32(len(k.slots))
		k.slots = append(k.slots, slot{})
	}
	k.slots[s].fn = fn
	k.heap = append(k.heap, entry{at: t, seq: k.seq, slot: s})
	k.seq++
	k.up(len(k.heap) - 1)
	return Event{k: k, slot: s, gen: k.slots[s].gen}
}

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d time.Duration, fn func()) Event {
	return k.At(k.now+d, fn)
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	top := k.heap[0]
	k.remove(0)
	fn := k.slots[top.slot].fn
	k.release(top.slot)
	k.now = top.at
	k.processed++
	fn()
	return true
}

// Run executes events in timestamp order until the queue is exhausted,
// Stop is called, or the next event would fire after until. The clock is
// left at the time of the last executed event: it never advances without
// an event, so a caller who needs the clock at until should schedule a
// no-op there.
func (k *Kernel) Run(until Time) {
	k.trc.Emit(trace.Event{
		TS: k.now, Cat: trace.Sim, Name: trace.EvRun,
		Node: trace.NoNode, Peer: trace.NoNode, Arg: int64(until),
	})
	k.stopped = false
	for !k.stopped && len(k.heap) > 0 && k.heap[0].at <= until {
		k.Step()
	}
}

// RunAll executes events until the queue is empty or Stop is called.
func (k *Kernel) RunAll() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// Pending returns the number of scheduled events. Cancel removes an event
// at once, so every queued event is live.
func (k *Kernel) Pending() int { return len(k.heap) }

// slot is one arena cell: the callback of a scheduled event, its entry's
// position in the heap, and a generation that changes whenever the slot
// is freed.
type slot struct {
	fn    func()
	gen   uint32
	index int32
}

// entry is one heap element. The sequence number breaks time ties so that
// events scheduled earlier fire earlier, which keeps the simulation
// deterministic.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// release frees slot s and invalidates every handle to it.
func (k *Kernel) release(s int32) {
	k.slots[s].fn = nil
	k.slots[s].gen++
	k.free = append(k.free, s)
}

// remove deletes the heap entry at position i.
func (k *Kernel) remove(i int) {
	n := len(k.heap) - 1
	last := k.heap[n]
	k.heap = k.heap[:n]
	if i < n {
		k.heap[i] = last
		if !k.down(i) {
			k.up(i)
		}
	}
}

// set places e at heap position i and records the position in its slot.
func (k *Kernel) set(i int, e entry) {
	k.heap[i] = e
	k.slots[e.slot].index = int32(i)
}

func (k *Kernel) up(i int) {
	e := k.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(k.heap[p]) {
			break
		}
		k.set(i, k.heap[p])
		i = p
	}
	k.set(i, e)
}

// down sifts the entry at i toward the leaves and reports whether it moved.
func (k *Kernel) down(i int) bool {
	h := k.heap
	e, i0 := h[i], i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		k.set(i, h[c])
		i = c
	}
	k.set(i, e)
	return i > i0
}
