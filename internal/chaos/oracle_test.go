package chaos

import (
	"strings"
	"testing"
	"time"

	"vivo/internal/faults"
	"vivo/internal/metrics"
	"vivo/internal/press"
	"vivo/internal/trace"
)

// fakeObs builds a healthy observation by hand; individual tests then
// break exactly one invariant.
func fakeObs() *Observation {
	p := DefaultParams()
	events := &EventFold{}
	pts := make([]metrics.Point, int(p.horizon()/time.Second))
	for i := range pts {
		pts[i] = metrics.Point{At: time.Duration(i) * time.Second, Throughput: 1000}
	}
	inv := make([]press.NodeView, 4)
	for i := range inv {
		inv[i] = press.NodeView{
			Node: i, Up: true, ProcAlive: true, Joined: true,
			Members: []int{0, 1, 2, 3},
		}
	}
	return &Observation{
		Version:  press.TCPPress,
		Seed:     1,
		Schedule: Schedule{},
		P:        p,
		Horizon:  p.horizon(),
		Issued:   1000, Unsettled: 0,
		Served: 990, Failed: 10,
		Outcomes: map[metrics.Outcome]int64{
			metrics.Served: 990, metrics.Refused: 4,
			metrics.ConnectTimeout: 3, metrics.RequestTimeout: 3,
		},
		BaselineTail: 1000,
		Timeline:     metrics.Timeline{Bin: time.Second, Points: pts},
		Events:       events,
		Inventory:    inv,
	}
}

func verdictOf(t *testing.T, o Oracle, obs *Observation) Verdict {
	t.Helper()
	v := o.Check(obs)
	if v.Oracle != o.Name() {
		t.Fatalf("verdict names %q, oracle is %q", v.Oracle, o.Name())
	}
	return v
}

func TestConservationOracle(t *testing.T) {
	obs := fakeObs()
	if v := verdictOf(t, conservation{}, obs); v.Status != Pass {
		t.Fatalf("healthy observation failed conservation: %s", v.Detail)
	}
	obs.Issued = 1001 // one request vanished
	if v := verdictOf(t, conservation{}, obs); v.Status != Fail {
		t.Fatal("lost request not detected")
	}
	obs = fakeObs()
	obs.Outcomes[metrics.Refused] = 5 // classes no longer decompose totals
	if v := verdictOf(t, conservation{}, obs); v.Status != Fail {
		t.Fatal("outcome-class mismatch not detected")
	}
}

func TestLivenessOracle(t *testing.T) {
	obs := fakeObs()
	if v := verdictOf(t, liveness{}, obs); v.Status != Pass {
		t.Fatalf("healthy observation failed liveness: %s", v.Detail)
	}
	obs.Unsettled = 2
	if v := verdictOf(t, liveness{}, obs); v.Status != Fail {
		t.Fatal("unresolved requests not detected")
	}
}

func TestRecoveryOracle(t *testing.T) {
	obs := fakeObs()
	if v := verdictOf(t, recovery{}, obs); v.Status != Pass {
		t.Fatalf("healthy observation failed recovery: %s", v.Detail)
	}
	// Tail throughput collapses below (1-ε) × baseline.
	for i := range obs.Timeline.Points {
		if obs.Timeline.Points[i].At >= obs.Horizon-recoveryTail {
			obs.Timeline.Points[i].Throughput = 500
		}
	}
	if v := verdictOf(t, recovery{}, obs); v.Status != Fail {
		t.Fatal("collapsed tail throughput not detected")
	}
	// Non-recoverable schedules are skipped, not failed: splintering
	// after a connectivity fault is the paper's finding.
	obs.Version = press.TCPPressHB
	obs.Schedule = Schedule{Faults: []Fault{{Type: faults.LinkDown, Target: 1, At: 30 * time.Second, Dur: 10 * time.Second}}}
	if v := verdictOf(t, recovery{}, obs); v.Status != Skip {
		t.Fatalf("non-recoverable schedule judged %v, want skip", v.Status)
	}
	// No baseline: skip.
	obs = fakeObs()
	obs.BaselineTail = 0
	if v := verdictOf(t, recovery{}, obs); v.Status != Skip {
		t.Fatal("missing baseline should skip")
	}
}

func TestMembershipOracle(t *testing.T) {
	obs := fakeObs()
	if v := verdictOf(t, membership{}, obs); v.Status != Pass {
		t.Fatalf("healthy observation failed membership: %s", v.Detail)
	}
	breakages := []func(*Observation){
		func(o *Observation) { o.Inventory[2].Up = false },
		func(o *Observation) { o.Inventory[1].Frozen = true },
		func(o *Observation) { o.Inventory[3].ProcAlive = false; o.Inventory[3].Members = nil },
		func(o *Observation) { o.Inventory[0].Joined = false },
		func(o *Observation) { o.Inventory[2].Members = []int{2} }, // splintered
	}
	for i, brk := range breakages {
		o := fakeObs()
		brk(o)
		if v := verdictOf(t, membership{}, o); v.Status != Fail {
			t.Fatalf("breakage %d not detected", i)
		}
	}
	obs.Version = press.VIAPress0
	obs.Schedule = Schedule{Faults: []Fault{{Type: faults.SwitchDown, Target: 0, At: 30 * time.Second, Dur: 5 * time.Second}}}
	if v := verdictOf(t, membership{}, obs); v.Status != Skip {
		t.Fatalf("non-recoverable schedule judged %v, want skip", v.Status)
	}
}

func TestWellFormedOracle(t *testing.T) {
	obs := fakeObs()
	ev := func(name, note string, node int, ts time.Duration) trace.Event {
		return trace.Event{TS: ts, Cat: trace.Fault, Name: name, Node: node, Peer: trace.NoNode, Note: note}
	}
	// Balanced: inject+heal, plus a no-op pair with a detail note.
	obs.Events.Record(ev(trace.EvFaultInject, "link-down", 2, 30*time.Second))
	obs.Events.Record(ev(trace.EvFaultInject, "link-down", 2, 31*time.Second))
	obs.Events.Record(ev(trace.EvFaultHeal, "link-down (no-op: link already down)", 2, 31*time.Second))
	obs.Events.Record(ev(trace.EvFaultHeal, "link-down", 2, 40*time.Second))
	if v := verdictOf(t, wellFormed{}, obs); v.Status != Pass {
		t.Fatalf("balanced trace failed: %s", v.Detail)
	}
	// Unbalanced: an injection that never heals.
	obs.Events.Record(ev(trace.EvFaultInject, "node-hang", 1, 50*time.Second))
	v := verdictOf(t, wellFormed{}, obs)
	if v.Status != Fail || !strings.Contains(v.Detail, "never healed") {
		t.Fatalf("leaked injection not detected: %+v", v)
	}
	// A heal with no injection is also a violation.
	obs = fakeObs()
	obs.Events.Record(ev(trace.EvFaultHeal, "app-hang", 0, 10*time.Second))
	if v := verdictOf(t, wellFormed{}, obs); v.Status != Fail {
		t.Fatal("orphan heal not detected")
	}
}

// With several injections leaked, the detail names the smallest
// (node, fault) every time, whatever the map order.
func TestWellFormedLeakDetailIsDeterministic(t *testing.T) {
	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }
	const want = "1 injection(s) of app-hang on n1 never healed"
	for i := 0; i < 20; i++ {
		o := orderObs(
			inject(sec(30), 2, "link-down"),
			inject(sec(31), 1, "node-hang"),
			inject(sec(32), 1, "app-hang"),
			inject(sec(33), 3, "app-hang"),
		)
		if v := verdictOf(t, wellFormed{}, o); v.Status != Fail || v.Detail != want {
			t.Fatalf("attempt %d: %+v, want FAIL %q", i, v, want)
		}
	}
}

func TestForbidFaultFixture(t *testing.T) {
	obs := fakeObs()
	orc := ForbidFault{T: faults.AppCrash}
	if v := verdictOf(t, orc, obs); v.Status != Pass {
		t.Fatal("fixture failed with no injection")
	}
	obs.Events.Record(trace.Event{
		TS: 40 * time.Second, Cat: trace.Fault, Name: trace.EvFaultInject,
		Node: 1, Peer: trace.NoNode, Note: "app-crash",
	})
	if v := verdictOf(t, orc, obs); v.Status != Fail {
		t.Fatal("fixture missed the forbidden injection")
	}
}

func TestRecoverableTable(t *testing.T) {
	// Spot-check the paper-derived entries (the full table is pinned
	// empirically by the calibration behind the campaign tests).
	cases := []struct {
		v    press.Version
		t    faults.Type
		want bool
	}{
		{press.TCPPress, faults.LinkDown, true},      // blind TCP stalls and resumes
		{press.TCPPressHB, faults.LinkDown, false},   // detects, evicts, never remerges (§5.2)
		{press.RobustPress, faults.LinkDown, true},   // remerge ablation on
		{press.TCPPress, faults.AppCrash, false},     // restart loses the cache
		{press.VIAPress0, faults.KernelMemory, true}, // user-level bypasses kernel buffers
		{press.TCPPress, faults.KernelMemory, false},
		{press.TCPPress, faults.MemoryPinning, true},   // no pinned cache
		{press.VIAPress5, faults.MemoryPinning, false}, // sheds the zero-copy cache
	}
	for _, c := range cases {
		if got := Recoverable(c.v, c.t); got != c.want {
			t.Errorf("Recoverable(%s, %s) = %v, want %v", c.v, c.t, got, c.want)
		}
	}
	if !RecoverableSchedule(press.TCPPress, Schedule{}) {
		t.Error("empty schedule must be recoverable")
	}
}
