package chaos

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"vivo/internal/faults"
	"vivo/internal/trace"
)

func TestStageOf(t *testing.T) {
	p := testParams() // Stabilize 10s, Window 15s
	cases := []struct {
		at   time.Duration
		want string
	}{
		{10 * time.Second, "early"},
		{14900 * time.Millisecond, "early"},
		{15 * time.Second, "mid"},
		{19900 * time.Millisecond, "mid"},
		{20 * time.Second, "late"},
		{24900 * time.Millisecond, "late"},
	}
	for _, tc := range cases {
		if got := p.stageOf(tc.at); got != tc.want {
			t.Errorf("stageOf(%v) = %q, want %q", tc.at, got, tc.want)
		}
	}
}

func TestSignatureBits(t *testing.T) {
	o := fakeObs()
	o.P = testParams()
	o.Schedule = Schedule{Faults: []faults.Spec{
		{Type: faults.LinkDown, Target: 0, At: 11 * time.Second, Dur: 2 * time.Second},
		{Type: faults.AppCrash, Target: 1, At: 21 * time.Second},
	}}
	o.Events.Record(trace.Event{Name: trace.EvSend, Node: 0, Peer: 1})
	o.Events.Record(trace.Event{Name: trace.EvRecv, Node: 1, Peer: 0})
	o.Events.Record(trace.Event{Name: trace.EvSend, Node: 1, Peer: 0})
	verdicts := []Verdict{
		{Oracle: "conservation", Status: Pass},
		{Oracle: "liveness", Status: Fail},
	}
	sig := Signature(o, verdicts)
	want := []string{
		"b:recv>send",
		"b:send>recv",
		"o:TCP-PRESS/app-crash/late/conservation=pass",
		"o:TCP-PRESS/app-crash/late/liveness=FAIL",
		"o:TCP-PRESS/link-down/early/conservation=pass",
		"o:TCP-PRESS/link-down/early/liveness=FAIL",
	}
	if !reflect.DeepEqual(sig, want) {
		t.Fatalf("signature = %q, want %q", sig, want)
	}
	if !sort.StringsAreSorted(sig) {
		t.Fatal("signature bits not sorted")
	}
	// Duplicate bigrams fold into one bit; a nil event fold drops only the
	// bigram family.
	o.Events.Record(trace.Event{Name: trace.EvRecv, Node: 0, Peer: 1})
	if again := Signature(o, verdicts); len(again) != len(sig) {
		t.Fatalf("duplicate bigram added a bit: %q", again)
	}
	o.Events = nil
	if noEv := Signature(o, verdicts); len(noEv) != 4 {
		t.Fatalf("nil event fold kept bigram bits: %q", noEv)
	}
}

func TestCoverageMerge(t *testing.T) {
	cov := NewCoverage()
	if fresh := cov.Merge([]string{"a", "b"}, 0); fresh != 2 {
		t.Fatalf("first merge lit %d bits, want 2", fresh)
	}
	if fresh := cov.Merge([]string{"b", "c"}, 1); fresh != 1 {
		t.Fatalf("second merge lit %d bits, want 1", fresh)
	}
	if fresh := cov.Merge([]string{"a", "c"}, 2); fresh != 0 {
		t.Fatalf("stale merge lit %d bits, want 0", fresh)
	}
	if cov.Size() != 3 {
		t.Fatalf("size %d, want 3", cov.Size())
	}
	if got, want := cov.Bits(), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bits %q, want %q", got, want)
	}
	// The discoverer is the first run that lit the bit.
	if cov.firstSeen["b"] != 0 || cov.firstSeen["c"] != 1 {
		t.Fatalf("firstSeen wrong: %v", cov.firstSeen)
	}
}
