package faults

// Edge cases of randomized multi-fault schedules: overlapping faults on
// the same component, faults landing during repair windows, repairs
// racing the restart daemon, and back-to-back interpositions. The chaos
// engine generates all of these; every one must be a defined no-op or a
// clean application — never a panic, and never an unbalanced
// inject/heal pair in the trace.

import (
	"strings"
	"testing"
	"time"

	"vivo/internal/metrics"
	"vivo/internal/press"
	"vivo/internal/sim"
	"vivo/internal/trace"
)

// quietDeployment builds a deployment with no client load, so no
// intra-cluster data sends happen after bootstrap (TCP-PRESS also has no
// heartbeats). Interposer faults armed here can only resolve through the
// process-death path.
func quietDeployment(t *testing.T) (*sim.Kernel, *press.Deployment, *metrics.Recorder, *trace.Recorder) {
	t.Helper()
	k := sim.New(3)
	tr := trace.NewRecorder()
	k.SetTracer(trace.New(tr))
	cfg := press.DefaultConfig(press.TCPPress)
	cfg.WorkingSetFiles = 4096
	cfg.CacheBytes = 16 << 20
	rec := metrics.NewRecorder(k, time.Second)
	d := press.NewDeployment(k, cfg)
	d.Start()
	d.WarmStart()
	return k, d, rec, tr
}

// faultEvents collects the injector's trace events.
func faultEvents(tr *trace.Recorder) (injects, heals []trace.Event) {
	for _, e := range tr.Events() {
		switch e.Name {
		case trace.EvFaultInject:
			injects = append(injects, e)
		case trace.EvFaultHeal:
			heals = append(heals, e)
		}
	}
	return
}

func healNotes(heals []trace.Event) []string {
	out := make([]string, len(heals))
	for i, e := range heals {
		out[i] = e.Note
	}
	return out
}

func TestScheduleValidatesInput(t *testing.T) {
	k, d, rec := testDeployment(t, press.TCPPress)
	inj := NewInjector(k, d, rec)
	if err := inj.Schedule(Type(99), 0, time.Second, time.Second); err == nil {
		t.Fatal("unknown fault type accepted")
	}
	if err := inj.Schedule(Type(-1), 0, time.Second, time.Second); err == nil {
		t.Fatal("negative fault type accepted")
	}
	if err := inj.Schedule(LinkDown, -1, time.Second, time.Second); err == nil {
		t.Fatal("negative target accepted")
	}
	if err := inj.Schedule(LinkDown, d.Cfg.Nodes, time.Second, time.Second); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if err := inj.Schedule(LinkDown, 0, time.Second, -time.Second); err == nil {
		t.Fatal("negative duration accepted")
	}
	if err := inj.Schedule(LinkDown, 0, time.Second, time.Second); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

// TestOverlappingSameFaultIsNoOp injects LinkDown twice into the same
// node with overlapping windows. The second injection must be a no-op
// that neither panics nor heals the first fault early: the link comes
// back exactly when the FIRST fault's repair fires, not the second's.
func TestOverlappingSameFaultIsNoOp(t *testing.T) {
	k, d, rec, tr := quietDeployment(t)
	inj := NewInjector(k, d, rec)
	inj.Schedule(LinkDown, 2, 5*time.Second, 20*time.Second)  // heals at 25s
	inj.Schedule(LinkDown, 2, 10*time.Second, 30*time.Second) // no-op
	k.Run(24 * time.Second)
	if d.HW.Node(2).Link.Up {
		t.Fatal("link up before the first fault's repair")
	}
	k.Run(26 * time.Second)
	if !d.HW.Node(2).Link.Up {
		t.Fatal("link not repaired at the first fault's repair time")
	}
	k.Run(60 * time.Second)
	injects, heals := faultEvents(tr)
	if len(injects) != 2 || len(heals) != 2 {
		t.Fatalf("injects=%d heals=%d, want 2 and 2 (balanced)", len(injects), len(heals))
	}
	// The no-op heal documents itself.
	if !strings.Contains(strings.Join(healNotes(heals), "|"), "no-op: link already down") {
		t.Fatalf("no-op reason missing from heal notes: %v", healNotes(heals))
	}
}

// TestFaultIntoDownNodeIsNoOp lands process and hang faults inside a
// NodeCrash window: the node is down, so there is nothing to kill,
// freeze, or interpose on. All three must be defined no-ops with
// balanced trace pairs.
func TestFaultIntoDownNodeIsNoOp(t *testing.T) {
	k, d, rec, tr := quietDeployment(t)
	inj := NewInjector(k, d, rec)
	inj.Schedule(NodeCrash, 1, 5*time.Second, 30*time.Second)
	inj.Schedule(AppCrash, 1, 10*time.Second, 0)              // no live process
	inj.Schedule(NodeHang, 1, 12*time.Second, 10*time.Second) // node down
	inj.Schedule(BadPtrNull, 1, 14*time.Second, 0)            // no live process
	k.Run(120 * time.Second)
	injects, heals := faultEvents(tr)
	if len(injects) != 4 || len(heals) != 4 {
		t.Fatalf("injects=%d heals=%d, want 4 and 4", len(injects), len(heals))
	}
	notes := strings.Join(healNotes(heals), "|")
	for _, want := range []string{"no-op: no live process", "no-op: node down"} {
		if !strings.Contains(notes, want) {
			t.Fatalf("heal notes %v missing %q", healNotes(heals), want)
		}
	}
	// The node reboots and the daemon restarts PRESS afterwards.
	if s := d.Server(1); s == nil || !s.Alive() {
		t.Fatal("server not restarted after the crash window")
	}
}

// TestAppHangRepairRacesDaemonRestart kills a SIGSTOPped process before
// its AppHang repair fires. The repair must notice the process is gone
// (not SIGCONT a corpse or the daemon's replacement), and the
// replacement process must come up running.
func TestAppHangRepairRacesDaemonRestart(t *testing.T) {
	k, d, rec, _ := quietDeployment(t)
	inj := NewInjector(k, d, rec)
	inj.Schedule(AppHang, 2, 5*time.Second, 20*time.Second) // repair at 25s
	var stopped *press.Server
	k.At(10*time.Second, func() {
		stopped = d.Server(2)
		d.Process(2).Kill() // dies while stopped; daemon takes over
	})
	k.Run(60 * time.Second)
	if stopped == nil || stopped.Alive() {
		t.Fatal("killed server still alive")
	}
	s := d.Server(2)
	if s == nil || !s.Alive() || s == stopped {
		t.Fatal("daemon did not restart the server")
	}
	if p := d.Process(2); p == nil || p.Stopped() {
		t.Fatal("replacement process is stopped — the stale AppHang repair hit it")
	}
}

// TestNodeCrashDuringAppHang crashes a node while its PRESS process is
// SIGSTOPped. The crash already discards the CPU's block, so the dying
// stopped process must not release it a second time (this used to panic
// "Unblock without Block"); after the reboot the CPU drains again and the
// daemon's replacement runs.
func TestNodeCrashDuringAppHang(t *testing.T) {
	k, d, rec, tr := quietDeployment(t)
	inj := NewInjector(k, d, rec)
	inj.Schedule(AppHang, 2, 5*time.Second, 20*time.Second)   // repair at 25s
	inj.Schedule(NodeCrash, 2, 10*time.Second, 5*time.Second) // boots at 15s
	k.Run(60 * time.Second)
	if d.HW.Node(2).CPU.Blocked() {
		t.Fatal("CPU still blocked after the reboot")
	}
	if p := d.Process(2); p == nil || p.Stopped() {
		t.Fatal("replacement process missing or stopped")
	}
	if s := d.Server(2); s == nil || !s.Alive() {
		t.Fatal("daemon did not restart the server")
	}
	injects, heals := faultEvents(tr)
	if len(injects) != 2 || len(heals) != 2 {
		t.Fatalf("injects=%d heals=%d, want 2 and 2", len(injects), len(heals))
	}
}

// TestBackToBackInterpositions arms a second bad-parameter fault while
// the first interposer is still waiting for a send (no traffic, so the
// first one stays armed). The second must be a defined no-op (one
// interposer per process), traced and balanced; the first eventually
// heals through the process-death path.
func TestBackToBackInterpositions(t *testing.T) {
	k, d, rec, tr := quietDeployment(t)
	inj := NewInjector(k, d, rec)
	inj.Schedule(BadPtrNull, 0, 5*time.Second, 0)
	inj.Schedule(BadSizeOffset, 0, 5*time.Second+100*time.Millisecond, 0)
	k.At(20*time.Second, func() { d.Process(0).Kill() })
	k.Run(60 * time.Second)
	injects, heals := faultEvents(tr)
	if len(injects) != 2 || len(heals) != 2 {
		t.Fatalf("injects=%d heals=%d, want 2 and 2", len(injects), len(heals))
	}
	notes := strings.Join(healNotes(heals), "|")
	if !strings.Contains(notes, "no-op: interposer already armed") {
		t.Fatalf("no-op reason missing from heal notes: %v", healNotes(heals))
	}
	if !strings.Contains(notes, "process died before corrupted send") {
		t.Fatalf("death-heal of the armed interposer missing: %v", healNotes(heals))
	}
}

// TestInterposerClearedOnProcessDeath is the leak regression test: arm a
// bad-parameter interposer on a node with no traffic (the corrupted send
// never happens), then kill the process. The fault must heal through the
// process-death path — balanced trace, reason recorded — and must not
// leak onto the daemon's replacement server.
func TestInterposerClearedOnProcessDeath(t *testing.T) {
	k, d, rec, tr := quietDeployment(t)
	inj := NewInjector(k, d, rec)
	inj.Schedule(BadPtrOffset, 1, 5*time.Second, 0)
	var armed *press.Server
	k.At(6*time.Second, func() {
		armed = d.Server(1)
		if armed == nil || !armed.Interposed() {
			t.Error("interposer not armed at 6s")
		}
	})
	k.At(10*time.Second, func() { d.Process(1).Kill() })
	k.Run(60 * time.Second)
	injects, heals := faultEvents(tr)
	if len(injects) != 1 || len(heals) != 1 {
		t.Fatalf("injects=%d heals=%d, want 1 and 1 (death must heal the pending interposition)", len(injects), len(heals))
	}
	if !strings.Contains(heals[0].Note, "process died before corrupted send") {
		t.Fatalf("heal note %q does not record the death path", heals[0].Note)
	}
	if heals[0].TS != 10*time.Second {
		t.Fatalf("heal at %v, want at the kill instant (10s)", heals[0].TS)
	}
	if armed.Interposed() {
		t.Fatal("dead server still holds the interposer")
	}
	if s := d.Server(1); s == nil || !s.Alive() || s.Interposed() {
		t.Fatal("replacement server missing or wrongly interposed")
	}
}
