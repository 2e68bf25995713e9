package metrics

import (
	"strings"
	"testing"
	"time"

	"vivo/internal/sim"
)

func latencyRecorder(k *sim.Kernel) *Recorder {
	r := NewRecorder(k, time.Second)
	r.TrackLatency()
	return r
}

// TestRecorderWindows drives a recorder through a scripted run and checks
// bin attribution, window merging, and the failed-count bookkeeping.
func TestRecorderWindows(t *testing.T) {
	k := sim.New(1)
	r := latencyRecorder(k)
	settle := func(o Outcome, d time.Duration) func() {
		return func() { r.Settle(k.Now(), o, d) }
	}

	// Two served requests settle in bin 0, one (slow) in bin 2, and a
	// timeout is counted in bin 2.
	k.After(100*time.Millisecond, settle(Served, 5*time.Millisecond))
	k.After(900*time.Millisecond, settle(Served, 20*time.Millisecond))
	k.After(2500*time.Millisecond, settle(Served, 2*time.Second))
	k.After(2600*time.Millisecond, settle(RequestTimeout, 6*time.Second))
	k.Run(3 * time.Second)

	if q := r.TotalQuantiles(); q.Count != 3 || q.Failed != 1 {
		t.Fatalf("totals: got n=%d failed=%d, want 3/1", q.Count, q.Failed)
	}
	if q := r.Window(0, time.Second); q.Count != 2 || q.Failed != 0 {
		t.Fatalf("bin-0 window: got n=%d failed=%d, want 2/0", q.Count, q.Failed)
	}
	if q := r.Window(2*time.Second, 3*time.Second); q.Count != 1 || q.Failed != 1 {
		t.Fatalf("bin-2 window: got n=%d failed=%d, want 1/1", q.Count, q.Failed)
	}
	whole := r.Window(0, 3*time.Second)
	if whole != r.TotalQuantiles() {
		t.Fatalf("whole-run window %+v != totals %+v", whole, r.TotalQuantiles())
	}
	if empty := r.Window(10*time.Second, 20*time.Second); empty.Count != 0 || empty.P99 != 0 {
		t.Fatalf("empty window not zero: %+v", empty)
	}
	if served, failed := r.Totals(); served != 3 || failed != 1 {
		t.Fatalf("throughput totals %d/%d, want 3/1: one settle feeds both views", served, failed)
	}

	tl := r.LatencyTimeline()
	if len(tl.Points) != 3 {
		t.Fatalf("timeline has %d bins, want 3", len(tl.Points))
	}
	if tl.Points[1].Count != 0 || tl.Points[2].Count != 1 || tl.Points[2].Failed != 1 {
		t.Fatalf("timeline bins wrong: %+v", tl.Points)
	}
	at, worst := tl.WorstP99(1)
	if at != 2*time.Second || worst != tl.Points[2].P99 {
		t.Fatalf("WorstP99 = (%v, %v), want bin 2", at, worst)
	}
	if !strings.Contains(tl.String(), "p99") || !strings.Contains(tl.CSV(), "p99_ms") {
		t.Fatalf("renderings missing headers:\n%s\n%s", tl.String(), tl.CSV())
	}
}

// TestRecorderRenderDeterministic replays the same scripted run twice and
// requires byte-identical renderings.
func TestRecorderRenderDeterministic(t *testing.T) {
	run := func() (string, string, string) {
		k := sim.New(3)
		r := latencyRecorder(k)
		for i := 1; i <= 50; i++ {
			d := time.Duration(i*i) * 37 * time.Microsecond
			at := time.Duration(i) * 90 * time.Millisecond
			o := Served
			if i%7 == 0 {
				o = RequestTimeout
			}
			k.After(at, func() { r.Settle(k.Now(), o, d) })
		}
		k.Run(5 * time.Second)
		return r.LatencyTimeline().String(), r.Total().Dump(), r.TotalQuantiles().String()
	}
	tl1, d1, q1 := run()
	tl2, d2, q2 := run()
	if tl1 != tl2 || d1 != d2 || q1 != q2 {
		t.Fatalf("repeated runs render differently:\n%s\nvs\n%s", tl1+d1+q1, tl2+d2+q2)
	}
}

// TestLatencyOffKeepsNoHistograms: without TrackLatency a settle only
// counts, and the latency queries see an empty population.
func TestLatencyOffKeepsNoHistograms(t *testing.T) {
	r := NewRecorder(sim.New(1), time.Second)
	r.Settle(1500*time.Millisecond, Served, time.Millisecond)
	if r.TracksLatency() {
		t.Fatal("histograms allocated without TrackLatency")
	}
	if served, _ := r.Totals(); served != 1 {
		t.Fatalf("served = %d, want 1", served)
	}
	if q := r.TotalQuantiles(); q.Count != 0 {
		t.Fatalf("untracked recorder reports %d latency samples", q.Count)
	}
}

func TestWindowUnder(t *testing.T) {
	r := latencyRecorder(sim.New(1))
	// Bin 0: two fast. Bin 5: one fast, one slow, one failure. Bin 9: slow.
	r.Settle(100*time.Millisecond, Served, time.Millisecond)
	r.Settle(900*time.Millisecond, Served, 2*time.Millisecond)
	r.Settle(5*time.Second, Served, time.Millisecond)
	r.Settle(5500*time.Millisecond, Served, 3*time.Second)
	r.Settle(5600*time.Millisecond, ConnectTimeout, 0)
	r.Settle(9*time.Second, Served, 2*time.Second)

	slo := 100 * time.Millisecond
	all := r.TotalUnder(slo)
	if all.Under != 3 || all.Served != 5 || all.Failed != 1 {
		t.Fatalf("TotalUnder = %+v", all)
	}
	w := r.WindowUnder(5*time.Second, 6*time.Second, slo)
	if w.Under != 1 || w.Served != 2 || w.Failed != 1 {
		t.Fatalf("WindowUnder bin 5 = %+v", w)
	}
	if f := w.Fraction(); f != 1.0/3 {
		t.Fatalf("bin-5 fraction = %v, want 1/3", f)
	}
	if e := r.WindowUnder(2*time.Second, 4*time.Second, slo); e.Total() != 0 || e.Fraction() != 1 {
		t.Fatalf("empty window = %+v frac=%v", e, e.Fraction())
	}
}

func TestWorstWindowUnder(t *testing.T) {
	r := latencyRecorder(sim.New(1))
	slo := 10 * time.Millisecond
	// Bin 1: 20 fast (frac 1). Bin 3: 10 fast + 10 slow (frac 0.5).
	// Bin 7: 1 slow — below minTotal, must be skipped.
	for i := 0; i < 20; i++ {
		r.Settle(time.Second+time.Duration(i)*time.Millisecond, Served, time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		r.Settle(3*time.Second+time.Duration(i)*time.Millisecond, Served, time.Millisecond)
		r.Settle(3*time.Second+time.Duration(10+i)*time.Millisecond, Served, time.Second)
	}
	r.Settle(7*time.Second, Served, time.Second)

	at, frac := r.WorstWindowUnder(slo, 10)
	if at != 3*time.Second || frac != 0.5 {
		t.Fatalf("worst = %v at %v, want 0.5 at 3s", frac, at)
	}
	// With the floor above every bin, the default (0, 1) comes back.
	if at, frac := r.WorstWindowUnder(slo, 1000); at != 0 || frac != 1 {
		t.Fatalf("no qualifying bin: got %v at %v", frac, at)
	}
}
