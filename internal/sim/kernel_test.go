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
			// Short hops and long timeouts, on a coarse grid for ties.
			at := k.Now() + Time(rng.Intn(20))*time.Millisecond
			if rng.Intn(2) == 0 {
				at += Time(rng.Intn(100)) * 20 * time.Millisecond
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
				until := k.Now() + Time(rng.Intn(30))*time.Millisecond
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
}

func TestTickerRearmDoesNotAllocate(t *testing.T) {
	k := New(1)
	n := 0
	tk := NewTicker(k, time.Second, func() { n++ })
	tk.Start()
	k.Step() // warm the arena
	if allocs := testing.AllocsPerRun(100, func() { k.Step() }); allocs != 0 {
		t.Fatalf("ticker re-arm allocates %.1f times per tick", allocs)
	}
	if n < 100 {
		t.Fatalf("ticks = %d, want at least 100", n)
	}
}

// BenchmarkKernel drives the kernel with the timer churn of a fault
// run's request path: each request arms a 6 s client timeout and a
// 200 ms retransmit timer, fires eleven short events about 100 us apart,
// and cancels both timers on the way. At 2500 requests/s about 15k
// timeouts are armed at once. One op is one fired event, so ns/op and
// allocs/op are per event.
func BenchmarkKernel(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for end := k.Steps() + uint64(b.N); k.Steps() < end; {
		k.Step()
	}
}
