package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"vivo/internal/sim"
)

func TestRecorderBinsBySimTime(t *testing.T) {
	k := sim.New(1)
	r := NewRecorder(k, time.Second)
	k.After(100*time.Millisecond, func() { r.Record(Served) })
	k.After(900*time.Millisecond, func() { r.Record(Served) })
	k.After(1500*time.Millisecond, func() { r.Record(Served) })
	k.After(1600*time.Millisecond, func() { r.Record(RequestTimeout) })
	k.RunAll()

	tl := r.Timeline()
	if len(tl.Points) != 2 {
		t.Fatalf("bins = %d, want 2", len(tl.Points))
	}
	if tl.Points[0].Throughput != 2 {
		t.Fatalf("bin0 throughput = %v, want 2", tl.Points[0].Throughput)
	}
	if tl.Points[1].Throughput != 1 || tl.Points[1].Failures != 1 {
		t.Fatalf("bin1 = %+v, want 1 served 1 failed", tl.Points[1])
	}
}

func TestAvailabilityFraction(t *testing.T) {
	k := sim.New(1)
	r := NewRecorder(k, time.Second)
	if r.Availability() != 1 {
		t.Fatal("empty recorder availability should be 1")
	}
	for i := 0; i < 9; i++ {
		r.Record(Served)
	}
	r.Record(ConnectTimeout)
	if got := r.Availability(); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("availability = %v, want 0.9", got)
	}
	served, failed := r.Totals()
	if served != 9 || failed != 1 {
		t.Fatalf("totals = %d/%d, want 9/1", served, failed)
	}
}

func TestMarks(t *testing.T) {
	k := sim.New(1)
	r := NewRecorder(k, time.Second)
	k.After(5*time.Second, func() { r.MarkNow("fault-injected") })
	k.After(25*time.Second, func() { r.MarkNow("fault-repaired") })
	k.RunAll()
	at, ok := r.MarkTime("fault-injected")
	if !ok || at != 5*time.Second {
		t.Fatalf("fault-injected mark at %v ok=%v", at, ok)
	}
	if _, ok := r.MarkTime("nope"); ok {
		t.Fatal("found nonexistent mark")
	}
	if len(r.Marks()) != 2 {
		t.Fatalf("marks = %d, want 2", len(r.Marks()))
	}
}

func TestMeanAndMinThroughput(t *testing.T) {
	k := sim.New(1)
	r := NewRecorder(k, time.Second)
	// 10 req/s for 5 s then 2 req/s for 5 s.
	for s := 0; s < 10; s++ {
		n := 10
		if s >= 5 {
			n = 2
		}
		for i := 0; i < n; i++ {
			at := time.Duration(s)*time.Second + time.Duration(i)*time.Millisecond
			k.At(at, func() { r.Record(Served) })
		}
	}
	k.RunAll()
	tl := r.Timeline()
	if got := tl.MeanThroughput(0, 5*time.Second); got != 10 {
		t.Fatalf("mean first half = %v, want 10", got)
	}
	if got := tl.MeanThroughput(5*time.Second, 10*time.Second); got != 2 {
		t.Fatalf("mean second half = %v, want 2", got)
	}
	if got := tl.MeanThroughput(20*time.Second, 30*time.Second); got != 0 {
		t.Fatalf("mean of empty window = %v, want 0", got)
	}
}

func TestOutcomeStrings(t *testing.T) {
	cases := map[Outcome]string{
		Served:         "served",
		ConnectTimeout: "connect-timeout",
		RequestTimeout: "request-timeout",
		Refused:        "refused",
		Outcome(99):    "outcome(99)",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
}

// Property: availability equals served/(served+failed) for any mix.
func TestPropertyAvailability(t *testing.T) {
	f := func(outcomes []bool) bool {
		k := sim.New(1)
		r := NewRecorder(k, time.Second)
		served := 0
		for _, ok := range outcomes {
			if ok {
				r.Record(Served)
				served++
			} else {
				r.Record(RequestTimeout)
			}
		}
		if len(outcomes) == 0 {
			return r.Availability() == 1
		}
		want := float64(served) / float64(len(outcomes))
		return math.Abs(r.Availability()-want) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: total throughput integrated over the timeline equals the number
// of served requests, whatever the arrival pattern.
func TestPropertyTimelineConservesRequests(t *testing.T) {
	f := func(offsetsMs []uint16) bool {
		k := sim.New(1)
		r := NewRecorder(k, time.Second)
		for _, ms := range offsetsMs {
			k.At(time.Duration(ms)*time.Millisecond, func() { r.Record(Served) })
		}
		k.RunAll()
		sum := 0.0
		for _, p := range r.Timeline().Points {
			sum += p.Throughput // bin width is 1 s
		}
		return math.Abs(sum-float64(len(offsetsMs))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineStringIncludesMarks(t *testing.T) {
	k := sim.New(1)
	r := NewRecorder(k, time.Second)
	k.After(500*time.Millisecond, func() { r.Record(Served) })
	k.After(700*time.Millisecond, func() { r.MarkNow("fault") })
	k.RunAll()
	s := r.Timeline().String()
	if s == "" || !contains(s, "fault") {
		t.Fatalf("timeline string missing mark: %q", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestTimelineCSV(t *testing.T) {
	k := sim.New(1)
	r := NewRecorder(k, time.Second)
	k.After(100*time.Millisecond, func() { r.Record(Served) })
	k.After(1200*time.Millisecond, func() { r.Record(RequestTimeout) })
	k.RunAll()
	csv := r.Timeline().CSV()
	want := "time_s,served_per_s,failed_per_s\n0,1.0,0.0\n1,0.0,1.0\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}
