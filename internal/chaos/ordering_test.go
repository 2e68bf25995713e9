package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"vivo/internal/faults"
	"vivo/internal/trace"
)

// orderObs builds a healthy observation and records the given events in
// order; the ordering oracles fold over exactly this sequence.
func orderObs(events ...trace.Event) *Observation {
	o := fakeObs()
	for _, e := range events {
		o.Events.Record(e)
	}
	return o
}

func member(ts time.Duration, node, peer int, note string) trace.Event {
	return trace.Event{TS: ts, Cat: trace.Press, Name: trace.EvMembership, Node: node, Peer: peer, Note: note}
}

func send(ts time.Duration, node, peer int) trace.Event {
	return trace.Event{TS: ts, Cat: trace.Substrate, Name: trace.EvSend, Node: node, Peer: peer, Note: "x"}
}

func recv(ts time.Duration, node, peer int) trace.Event {
	return trace.Event{TS: ts, Cat: trace.Substrate, Name: trace.EvRecv, Node: node, Peer: peer, Note: "x"}
}

func inject(ts time.Duration, node int, note string) trace.Event {
	return trace.Event{TS: ts, Cat: trace.Fault, Name: trace.EvFaultInject, Node: node, Peer: trace.NoNode, Note: note}
}

func heal(ts time.Duration, node int, note string) trace.Event {
	return trace.Event{TS: ts, Cat: trace.Fault, Name: trace.EvFaultHeal, Node: node, Peer: trace.NoNode, Note: note}
}

func admitEv(ts time.Duration, node int) trace.Event {
	return trace.Event{TS: ts, Cat: trace.Request, Name: trace.EvReqAdmit, Node: node, Peer: trace.NoNode}
}

// evict is the canonical opening event: node removes peer from its view.
func evict(ts time.Duration, node, peer int) trace.Event {
	return member(ts, node, peer, "removed; view [0 1 3]")
}

func TestEvictSendOracleViolations(t *testing.T) {
	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }
	cases := []struct {
		name   string
		events []trace.Event
	}{
		{"send after eviction", []trace.Event{
			evict(sec(30), 0, 2), send(sec(31), 0, 2),
		}},
		{"send-block after eviction", []trace.Event{
			evict(sec(30), 0, 2),
			{TS: sec(31), Cat: trace.Substrate, Name: trace.EvSendBlock, Node: 0, Peer: 2},
		}},
		{"credit-stall after eviction", []trace.Event{
			evict(sec(30), 0, 2),
			{TS: sec(31), Cat: trace.Substrate, Name: trace.EvCreditStall, Node: 0, Peer: 2},
		}},
		{"non-process fault does not absolve", []trace.Event{
			evict(sec(30), 0, 2), inject(sec(31), 0, "link-down"), send(sec(32), 0, 2),
		}},
		{"crash on another node does not absolve", []trace.Event{
			evict(sec(30), 0, 2), inject(sec(31), 1, "app-crash"), send(sec(32), 0, 2),
		}},
		{"recv from a third node does not absolve", []trace.Event{
			evict(sec(30), 0, 2), recv(sec(31), 0, 1), send(sec(32), 0, 2),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := verdictOf(t, evictSend{}, orderObs(tc.events...))
			if v.Status != Fail {
				t.Fatalf("violation not detected: %+v", v)
			}
			if !strings.Contains(v.Detail, "after evicting") {
				t.Fatalf("detail does not explain the eviction: %q", v.Detail)
			}
		})
	}
}

func TestEvictSendOracleClosesWindows(t *testing.T) {
	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }
	cases := []struct {
		name   string
		events []trace.Event
	}{
		{"no eviction at all", []trace.Event{
			send(sec(10), 0, 2), send(sec(11), 2, 0),
		}},
		{"view re-contains the evicted peer", []trace.Event{
			evict(sec(30), 0, 2),
			member(sec(35), 0, 2, "accepted join; view [0 1 2 3]"),
			send(sec(36), 0, 2),
		}},
		{"remerge clears the evictor", []trace.Event{
			evict(sec(30), 0, 2),
			member(sec(40), 0, trace.NoNode, "remerge; view [0 1 3]"),
			send(sec(41), 0, 2),
		}},
		{"join timeout clears the evictor", []trace.Event{
			evict(sec(30), 0, 2),
			member(sec(40), 0, trace.NoNode, "join timeout; view [0]"),
			send(sec(41), 0, 2),
		}},
		{"recv from the evicted peer reopens the channel", []trace.Event{
			evict(sec(30), 0, 2), recv(sec(33), 0, 2), send(sec(34), 0, 2),
		}},
		{"process-killing injection resets the evictor", []trace.Event{
			evict(sec(30), 0, 2), inject(sec(31), 0, "app-crash"), send(sec(32), 0, 2),
		}},
		{"node-crash with detail note resets the evictor", []trace.Event{
			evict(sec(30), 0, 2), inject(sec(31), 0, "node-crash (power off)"), send(sec(32), 0, 2),
		}},
		{"fatal resets the evictor", []trace.Event{
			evict(sec(30), 0, 2),
			{TS: sec(31), Cat: trace.Press, Name: trace.EvFatal, Node: 0, Peer: trace.NoNode},
			send(sec(32), 0, 2),
		}},
		{"another node may still send to the evicted peer", []trace.Event{
			evict(sec(30), 0, 2), send(sec(31), 1, 2),
		}},
		{"the evictor may send to other peers", []trace.Event{
			evict(sec(30), 0, 2), send(sec(31), 0, 1), send(sec(32), 0, 3),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if v := verdictOf(t, evictSend{}, orderObs(tc.events...)); v.Status != Pass {
				t.Fatalf("false positive: %+v", v)
			}
		})
	}
}

// Every event-reading oracle skips, rather than panics, on an
// observation with no event fold.
func TestEvictSendOracleSkipsWithoutEvents(t *testing.T) {
	for _, orc := range []Oracle{
		wellFormed{}, evictSend{}, crashAdmit{},
		ForbidFault{T: faults.AppCrash},
		ForbidPair{A: faults.KernelMemory, B: faults.LinkDown},
	} {
		t.Run(orc.Name(), func(t *testing.T) {
			o := fakeObs()
			o.Events = nil
			if v := verdictOf(t, orc, o); v.Status != Skip {
				t.Fatalf("nil event fold judged %v, want skip", v.Status)
			}
		})
	}
}

func TestCrashAdmitOracle(t *testing.T) {
	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }
	if v := verdictOf(t, crashAdmit{}, orderObs()); v.Status != Pass {
		t.Fatalf("empty log failed: %+v", v)
	}
	// Admission inside the crash window is the violation.
	v := verdictOf(t, crashAdmit{}, orderObs(
		inject(sec(30), 1, "node-crash"), admitEv(sec(31), 1),
	))
	if v.Status != Fail || !strings.Contains(v.Detail, "while node-crashed") {
		t.Fatalf("violation not detected: %+v", v)
	}
	passes := []struct {
		name   string
		events []trace.Event
	}{
		{"admit after heal", []trace.Event{
			inject(sec(30), 1, "node-crash"), heal(sec(35), 1, "node-crash"), admitEv(sec(36), 1),
		}},
		{"admit on a different node", []trace.Event{
			inject(sec(30), 1, "node-crash"), admitEv(sec(31), 2),
		}},
		{"other fault types do not open windows", []trace.Event{
			inject(sec(30), 1, "app-crash"), inject(sec(30), 1, "link-down"), admitEv(sec(31), 1),
		}},
		{"no-op heal does not underflow", []trace.Event{
			heal(sec(20), 1, "node-crash (no-op: already up)"),
			inject(sec(30), 1, "node-crash"), heal(sec(35), 1, "node-crash"), admitEv(sec(36), 1),
		}},
		{"heal note with detail still balances", []trace.Event{
			inject(sec(30), 1, "node-crash (power off)"),
			heal(sec(35), 1, "node-crash (reboot)"), admitEv(sec(36), 1),
		}},
	}
	for _, tc := range passes {
		t.Run(tc.name, func(t *testing.T) {
			if v := verdictOf(t, crashAdmit{}, orderObs(tc.events...)); v.Status != Pass {
				t.Fatalf("false positive: %+v", v)
			}
		})
	}
	// Nested windows: two injections need two heals.
	v = verdictOf(t, crashAdmit{}, orderObs(
		inject(sec(30), 1, "node-crash"), inject(sec(31), 1, "node-crash"),
		heal(sec(32), 1, "node-crash"), admitEv(sec(33), 1),
	))
	if v.Status != Fail {
		t.Fatalf("nested crash windows not tracked: %+v", v)
	}
}

func TestParseMembershipNote(t *testing.T) {
	cases := []struct {
		note    string
		trigger string
		view    []int
	}{
		{"removed; view [0 1 3]", "removed", []int{0, 1, 3}},
		{"accepted join; view [0 1 2 3]", "accepted join", []int{0, 1, 2, 3}},
		{"remerge; view []", "remerge", nil},
		{"join timeout", "join timeout", nil},
		{"rejoined; view [2]", "rejoined", []int{2}},
		{"removed; view [x]", "removed", nil}, // unparsable view degrades safely
	}
	for _, tc := range cases {
		trigger, view := parseMembershipNote(tc.note)
		if trigger != tc.trigger || !reflect.DeepEqual(view, tc.view) {
			t.Errorf("parseMembershipNote(%q) = (%q, %v), want (%q, %v)",
				tc.note, trigger, view, tc.trigger, tc.view)
		}
	}
}

func TestForbidPairFixture(t *testing.T) {
	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }
	orc := ForbidPair{A: faults.KernelMemory, B: faults.LinkDown}
	if got, want := orc.Name(), "forbid-pair-kernel-memory+link-down"; got != want {
		t.Fatalf("fixture name %q, want %q", got, want)
	}
	if v := verdictOf(t, orc, orderObs()); v.Status != Pass {
		t.Fatalf("empty log failed: %+v", v)
	}
	if v := verdictOf(t, orc, orderObs(inject(sec(30), 0, "kernel-memory"))); v.Status != Pass {
		t.Fatalf("one half of the pair must not trip the fixture: %+v", v)
	}
	v := verdictOf(t, orc, orderObs(
		inject(sec(30), 0, "kernel-memory"), inject(sec(32), 1, "link-down"),
	))
	if v.Status != Fail {
		t.Fatalf("both halves injected but fixture passed: %+v", v)
	}
}
