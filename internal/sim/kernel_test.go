package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	k := New(1)
	var got []int
	k.After(3*time.Second, func() { got = append(got, 3) })
	k.After(1*time.Second, func() { got = append(got, 1) })
	k.After(2*time.Second, func() { got = append(got, 2) })
	k.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", k.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Second, func() { got = append(got, i) })
	}
	k.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	k := New(1)
	fired := false
	e := k.After(time.Second, func() { fired = true })
	e.Cancel()
	k.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	k := New(1)
	fired := false
	later := k.After(2*time.Second, func() { fired = true })
	k.After(time.Second, func() { later.Cancel() })
	k.RunAll()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	k := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		k.After(d, func() { fired = append(fired, d) })
	}
	k.Run(3 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want exactly the two events <= 3s", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.Run(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("second Run did not drain remaining event; fired=%v", fired)
	}
}

func TestSchedulingInsideHandler(t *testing.T) {
	k := New(1)
	var at []Time
	k.After(time.Second, func() {
		k.After(time.Second, func() { at = append(at, k.Now()) })
	})
	k.RunAll()
	if len(at) != 1 || at[0] != 2*time.Second {
		t.Fatalf("nested event at %v, want [2s]", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New(1)
	k.After(2*time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(time.Second, func() {})
	})
	k.RunAll()
}

func TestStopHaltsRun(t *testing.T) {
	k := New(1)
	n := 0
	for i := 1; i <= 5; i++ {
		k.After(time.Duration(i)*time.Second, func() {
			n++
			if n == 2 {
				k.Stop()
			}
		})
	}
	k.RunAll()
	if n != 2 {
		t.Fatalf("executed %d events after Stop, want 2", n)
	}
	// A fresh Run resumes.
	k.RunAll()
	if n != 5 {
		t.Fatalf("resume executed %d total, want 5", n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []int64 {
		k := New(seed)
		var out []int64
		var step func()
		step = func() {
			out = append(out, int64(k.Now()), k.Rand().Int63n(1000))
			if len(out) < 200 {
				k.After(time.Duration(1+k.Rand().Intn(100))*time.Millisecond, step)
			}
		}
		k.After(time.Millisecond, step)
		k.RunAll()
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTickerPeriodAndStop(t *testing.T) {
	k := New(1)
	var ticks []Time
	tk := NewTicker(k, 5*time.Second, func() { ticks = append(ticks, k.Now()) })
	tk.Start()
	k.After(21*time.Second, func() { tk.Stop() })
	k.Run(time.Hour)
	if len(ticks) != 4 {
		t.Fatalf("got %d ticks %v, want 4", len(ticks), ticks)
	}
	for i, at := range ticks {
		want := time.Duration(i+1) * 5 * time.Second
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
	if tk.Running() {
		t.Fatal("ticker still running after Stop")
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	k := New(1)
	n := 0
	var tk *Ticker
	tk = NewTicker(k, time.Second, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	tk.Start()
	k.Run(time.Minute)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}

func TestTickerRestart(t *testing.T) {
	k := New(1)
	n := 0
	tk := NewTicker(k, time.Second, func() { n++ })
	tk.Start()
	k.Run(3 * time.Second)
	tk.Stop()
	tk.Start()
	k.Run(6 * time.Second)
	if n != 6 {
		t.Fatalf("ticks = %d, want 6 (3 before restart, 3 after)", n)
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the clock ends at the max delay.
func TestPropertyFiringOrderSorted(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		k := New(7)
		var fired []time.Duration
		var max time.Duration
		for _, ms := range delaysMs {
			d := time.Duration(ms) * time.Millisecond
			if d > max {
				max = d
			}
			k.After(d, func() { fired = append(fired, k.Now()) })
		}
		k.RunAll()
		if len(fired) != len(delaysMs) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return k.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPendingCountsLiveEvents(t *testing.T) {
	k := New(1)
	e1 := k.After(time.Second, func() {})
	k.After(2*time.Second, func() {})
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	e1.Cancel()
	if k.Pending() != 1 {
		t.Fatalf("pending after cancel = %d, want 1", k.Pending())
	}
}

func TestZeroEventIsInert(t *testing.T) {
	var e Event
	if e.Pending() {
		t.Fatal("zero Event is pending")
	}
	if e.When() != 0 {
		t.Fatalf("zero Event When() = %v, want 0", e.When())
	}
	e.Cancel() // must not panic

	k := New(1)
	fired := false
	k.After(time.Second, func() { fired = true })
	e.Cancel()
	k.RunAll()
	if !fired || k.Steps() != 1 {
		t.Fatalf("zero Event Cancel disturbed the queue: fired=%v steps=%d", fired, k.Steps())
	}
}

func TestStaleHandleAfterSlotReuse(t *testing.T) {
	k := New(1)
	old := k.After(time.Second, func() { t.Error("cancelled event fired") })
	old.Cancel()
	fired := false
	reused := k.After(2*time.Second, func() { fired = true })
	if reused.slot != old.slot {
		t.Fatalf("slot not reused: old %d new %d", old.slot, reused.slot)
	}
	old.Cancel() // stale: must leave the slot's new occupant alone
	if old.Pending() || !reused.Pending() || reused.When() != 2*time.Second {
		t.Fatalf("stale cancel hit the reused slot: old=%v new=%v", old.Pending(), reused.Pending())
	}
	k.RunAll()
	if !fired {
		t.Fatal("reused slot's event did not fire")
	}
	reused.Cancel() // already fired: no-op
	if k.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", k.Pending())
	}
}

// refEvent is one event of the reference queue in TestQueueMatchesReference.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// TestQueueMatchesReference drives the kernel and a trivial sorted-slice
// queue in lockstep through random At/After/Cancel/Step/Run(until)
// sequences — including cancels from inside handlers, self-cancel of the
// firing event, and cancels of fired and stale handles whose slots were
// reused — and checks the firing order, the clock, Pending and every
// handle's state after each operation.
func TestQueueMatchesReference(t *testing.T) {
	const grid = split / 8
	var used [2]bool // tiers that ever held an event
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New(seed)
		var (
			ref     []refEvent // sorted by (at, seq)
			handles []Event    // by id
			seq     uint64
			fired   int
		)
		check := func(op string) {
			t.Helper()
			for q, h := range k.tiers {
				if len(h) > 0 {
					used[q] = true
				}
			}
			if k.Pending() != len(ref) {
				t.Fatalf("seed %d after %s: Pending() = %d, reference %d", seed, op, k.Pending(), len(ref))
			}
			live := make(map[int]Time, len(ref))
			for _, r := range ref {
				live[r.id] = r.at
			}
			for id, h := range handles {
				at, ok := live[id]
				if h.Pending() != ok || h.When() != at {
					t.Fatalf("seed %d after %s: event %d Pending=%v When=%v, reference %v %v",
						seed, op, id, h.Pending(), h.When(), ok, at)
				}
			}
		}
		cancel := func(id int) {
			handles[id].Cancel()
			for i, r := range ref {
				if r.id == id {
					ref = append(ref[:i], ref[i+1:]...)
					break
				}
			}
		}
		var schedule func()
		schedule = func() {
			// Short hops on both sides of the tier split and long
			// timeouts, on a coarse grid for ties.
			at := k.Now() + Time(rng.Intn(10))*grid
			if rng.Intn(2) == 0 {
				at += Time(rng.Intn(100)) * 10 * grid
			}
			id := len(handles)
			r := refEvent{at: at, seq: seq, id: id}
			seq++
			i := sort.Search(len(ref), func(i int) bool {
				return ref[i].at > at || (ref[i].at == at && ref[i].seq > r.seq)
			})
			ref = append(ref, refEvent{})
			copy(ref[i+1:], ref[i:])
			ref[i] = r
			fn := func() {
				if len(ref) == 0 || ref[0].id != id {
					t.Fatalf("seed %d: event %d fired, reference expected %v", seed, id, ref)
				}
				if k.Now() != ref[0].at {
					t.Fatalf("seed %d: event %d fired at %v, want %v", seed, id, k.Now(), ref[0].at)
				}
				ref = ref[1:]
				fired++
				check("fire")
				switch rng.Intn(6) {
				case 0:
					cancel(id) // self-cancel: the event already fired
				case 1:
					cancel(rng.Intn(len(handles)))
				case 2, 3:
					schedule()
				}
				check("handler")
			}
			if rng.Intn(2) == 0 {
				handles = append(handles, k.At(at, fn))
			} else {
				handles = append(handles, k.After(at-k.Now(), fn))
			}
		}
		for op := 0; op < 600; op++ {
			switch n := rng.Intn(10); {
			case n < 5:
				schedule()
				check("schedule")
			case n < 7:
				if len(handles) > 0 {
					cancel(rng.Intn(len(handles)))
				}
				check("cancel")
			case n < 9:
				queued := len(ref)
				if k.Step() != (queued > 0) {
					t.Fatalf("seed %d: Step with %d queued returned the wrong result", seed, queued)
				}
				check("step")
			default:
				until := k.Now() + Time(rng.Intn(15))*grid
				k.Run(until)
				if len(ref) > 0 && ref[0].at <= until {
					t.Fatalf("seed %d: Run(%v) returned with event due at %v", seed, until, ref[0].at)
				}
				check("run")
			}
		}
		k.RunAll()
		check("drain")
		if fired == 0 || len(handles) < 300 {
			t.Fatalf("seed %d: degenerate sequence, %d handles, %d fired", seed, len(handles), fired)
		}
	}
	if !used[near] || !used[far] {
		t.Fatalf("tiers used near=%v far=%v, want both", used[near], used[far])
	}
}

// tierOf returns the tier holding pending event e.
func tierOf(e Event) int {
	q, _ := e.k.slots[e.slot].where()
	return q
}

// An event scheduled at T from far back sits in the far tier; one
// scheduled at the same T from just before it sits in the near tier and
// has the higher sequence number, so it must fire second.
func TestCrossTierTieFiresInSchedulingOrder(t *testing.T) {
	k := New(1)
	const at = 10 * split
	var got []string
	a := k.At(at, func() { got = append(got, "A") })
	var b Event
	k.At(at-split/2, func() {
		b = k.At(at, func() { got = append(got, "B") })
		if tierOf(a) != far || tierOf(b) != near {
			t.Errorf("tiers A=%d B=%d, want far=%d near=%d", tierOf(a), tierOf(b), far, near)
		}
	})
	k.RunAll()
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("fired %v, want [A B]", got)
	}
}

// Cancel, When, Pending and Run(until) with the earliest pending event
// in the far tier and a later one in the near tier.
func TestEarliestEventInFarTier(t *testing.T) {
	k := New(1)
	var fired []string
	mark := func(s string) func() { return func() { fired = append(fired, s) } }
	setup := func() (f, n Event) {
		// f is due 1.25 splits ahead: far. After one step, n is due just
		// under a split ahead but after f: near.
		start := k.Now()
		k.At(start+split/2, func() {})
		f = k.At(start+split+split/4, mark("F"))
		k.Step()
		n = k.At(k.Now()+split-1, mark("N"))
		if tierOf(f) != far || tierOf(n) != near || f.When() >= n.When() {
			t.Fatalf("setup: F tier %d at %v, N tier %d at %v", tierOf(f), f.When(), tierOf(n), n.When())
		}
		return f, n
	}

	f, n := setup()
	if k.Pending() != 2 || f.When() != split+split/4 || n.When() != 3*split/2-1 {
		t.Fatalf("Pending=%d F.When=%v N.When=%v", k.Pending(), f.When(), n.When())
	}
	k.Run(f.When() - 1)
	if len(fired) != 0 || k.Pending() != 2 {
		t.Fatalf("Run before F fired %v, Pending %d", fired, k.Pending())
	}
	k.Run(f.When())
	if len(fired) != 1 || fired[0] != "F" || k.Now() != split+split/4 || f.Pending() || !n.Pending() || k.Pending() != 1 {
		t.Fatalf("Run to F: fired %v at %v, F pending %v, N pending %v, Pending %d",
			fired, k.Now(), f.Pending(), n.Pending(), k.Pending())
	}
	k.RunAll()

	fired = nil
	f, n = setup()
	f.Cancel()
	if f.Pending() || f.When() != 0 || !n.Pending() || k.Pending() != 1 {
		t.Fatalf("after Cancel: F pending %v When %v, N pending %v, Pending %d",
			f.Pending(), f.When(), n.Pending(), k.Pending())
	}
	k.RunAll()
	if len(fired) != 1 || fired[0] != "N" {
		t.Fatalf("after cancelling F fired %v, want [N]", fired)
	}
}

// One period on each side of the tier split.
func TestTickerRearmDoesNotAllocate(t *testing.T) {
	for _, period := range []time.Duration{time.Second, time.Millisecond} {
		k := New(1)
		n := 0
		tk := NewTicker(k, period, func() { n++ })
		tk.Start()
		k.Step() // warm the arena
		if allocs := testing.AllocsPerRun(100, func() { k.Step() }); allocs != 0 {
			t.Fatalf("period %v: ticker re-arm allocates %.1f times per tick", period, allocs)
		}
		if n < 100 {
			t.Fatalf("period %v: ticks = %d, want at least 100", period, n)
		}
	}
}

// BenchmarkKernel measures the kernel under two queue shapes. One op is
// one fired event, so ns/op and allocs/op are per event.
func BenchmarkKernel(b *testing.B) {
	b.Run("churn", benchChurn)
	b.Run("resident", benchResident)
}

// benchChurn is the timer churn of a lightly loaded fault run's request
// path. Each request arms a 6 s client timeout and a 200 ms retransmit
// timer, fires eleven short events 100 us apart and cancels both timers
// on the way, the timeout ~1.1 ms after arming it. At 2500 requests/s
// about ten events are live at a time.
func benchChurn(b *testing.B) {
	const rate = 2500.0
	k := New(1)
	nop := func() {}
	var arrive func()
	arrive = func() {
		timeout := k.After(6*time.Second, nop)
		rto := k.After(200*time.Millisecond, nop)
		step := 0
		var hop func()
		hop = func() {
			step++
			switch step {
			case 5:
				rto.Cancel()
			case 11:
				timeout.Cancel()
				return
			}
			k.After(100*time.Microsecond, hop)
		}
		k.After(100*time.Microsecond, hop)
		k.After(time.Duration(k.Rand().ExpFloat64()/rate*float64(time.Second)), arrive)
	}
	k.After(0, arrive)
	k.Run(7 * time.Second) // past one timeout: the queue size is steady
	runSteps(b, k)
}

// benchResident is Table 1's shape: a saturated server's backlog keeps
// thousands of client timeouts armed beside a few short events. Requests
// arrive at 2500/s and each arms a 6 s request timeout and a 2 s connect
// timeout. It waits behind the 2500 requests before it, about a second,
// and is then served, which cancels both, so ~5k timeouts are live and
// none fires. Twelve chains of short events, each re-armed a mean of
// 400 us later, stand for the CPUs, links and NICs: about twelve fire per
// request. Every callback is bound once, so no event allocates.
func benchResident(b *testing.B) {
	const (
		rate    = 2500.0
		backlog = 2500
		chains  = 12
		gap     = 400 * time.Microsecond
	)
	k := New(1)
	nop := func() {}
	waiting := make([][2]Event, backlog) // a ring, oldest at next
	next := 0
	var arrive func()
	arrive = func() {
		w := &waiting[next]
		w[0].Cancel()
		w[1].Cancel()
		w[0] = k.After(6*time.Second, nop)
		w[1] = k.After(2*time.Second, nop)
		next = (next + 1) % backlog
		k.After(time.Duration(k.Rand().ExpFloat64()/rate*float64(time.Second)), arrive)
	}
	for range chains {
		var hop func()
		hop = func() { k.After(time.Duration(k.Rand().ExpFloat64()*float64(gap)), hop) }
		k.After(0, hop)
	}
	k.After(0, arrive)
	k.Run(7 * time.Second) // past one timeout: the queue size is steady
	runSteps(b, k)
}

// runSteps times b.N events of k.
func runSteps(b *testing.B, k *Kernel) {
	b.ReportAllocs()
	b.ResetTimer()
	for end := k.Steps() + uint64(b.N); k.Steps() < end; {
		k.Step()
	}
}
