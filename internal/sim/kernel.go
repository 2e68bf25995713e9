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
	k.remove(k.slots[e.slot].where())
	k.release(e.slot)
}

// When returns the virtual time a pending event is scheduled to fire at,
// or zero if it is not pending.
func (e Event) When() Time {
	if !e.Pending() {
		return 0
	}
	q, i := e.k.slots[e.slot].where()
	return e.k.tiers[q][i].at
}

// Kernel is a deterministic discrete-event scheduler. It is not safe for
// concurrent use: the simulation model is single-threaded by design, which
// is what makes runs reproducible.
type Kernel struct {
	now     Time
	tiers   [2][]entry // near and far min-heaps on (at, seq); no pointers
	slots   []slot     // callback arena, indexed by entry.slot and Event.slot
	free    []int32    // indices of unused slots
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
	q := near
	if t-k.now >= split {
		q = far
	}
	h := append(k.tiers[q], entry{at: t, seq: k.seq, slot: s})
	k.tiers[q] = h
	k.seq++
	k.up(h, len(h)-1, q)
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
	q := k.next()
	if q < 0 {
		return false
	}
	k.fire(q)
	return true
}

// fire pops the top of tier q, advances the clock to it and runs it.
func (k *Kernel) fire(q int) {
	top := k.tiers[q][0]
	k.remove(q, 0)
	fn := k.slots[top.slot].fn
	k.release(top.slot)
	k.now = top.at
	k.processed++
	fn()
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
	for !k.stopped {
		q := k.next()
		if q < 0 || k.tiers[q][0].at > until {
			return
		}
		k.fire(q)
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
func (k *Kernel) Pending() int { return len(k.tiers[near]) + len(k.tiers[far]) }

// The queue has two tiers (see "Scheduling" in the package doc): an event
// due less than split ahead when it is scheduled goes to the near heap,
// any later one to the far heap. The split sits in a gap of the measured
// delay histogram. Of the delays scheduled in four Quick TCP-PRESS-HB
// fault runs (in Table 1), 18% (16%) are 134 ms or more, over 81% are
// under 8 ms, and fewer than 0.01% fall between, so any split from ~10 to
// ~100 ms sorts the same events into each tier. With this one the near
// heap holds 5 to 14 entries on average, the far heap 240 to 320 in a
// fault run and ~5,200 in Table 1.
const (
	near  = 0
	far   = 1
	split = 16 * time.Millisecond
)

// next returns the tier whose top fires next, or -1 if both are empty.
func (k *Kernel) next() int {
	n, f := k.tiers[near], k.tiers[far]
	if len(f) > 0 && (len(n) == 0 || f[0].before(n[0])) {
		return far
	}
	if len(n) > 0 {
		return near
	}
	return -1
}

// slot is one arena cell: the callback of a scheduled event, its entry's
// tier and position, and a generation that changes whenever the slot is
// freed.
type slot struct {
	fn    func()
	gen   uint32
	index int32 // position i in the near heap, or ^i in the far heap
}

// where decodes index into the tier and position of the slot's entry.
func (s *slot) where() (q, i int) {
	m := s.index >> 31 // 0 for near, -1 for far
	return int(-m), int(s.index ^ m)
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

// remove deletes the entry at position i of tier q.
func (k *Kernel) remove(q, i int) {
	h := k.tiers[q]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	k.tiers[q] = h
	if i < n {
		h[i] = last
		if !k.down(h, i, q) {
			k.up(h, i, q)
		}
	}
}

// set places e at position i of heap h, which is tier q, and records
// where it is in its slot.
func (k *Kernel) set(h []entry, i int, e entry, q int) {
	h[i] = e
	k.slots[e.slot].index = int32(i) ^ -int32(q)
}

func (k *Kernel) up(h []entry, i, q int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		k.set(h, i, h[p], q)
		i = p
	}
	k.set(h, i, e, q)
}

// down sifts the entry at i toward the leaves and reports whether it moved.
func (k *Kernel) down(h []entry, i, q int) bool {
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
		k.set(h, i, h[c], q)
		i = c
	}
	k.set(h, i, e, q)
	return i > i0
}
