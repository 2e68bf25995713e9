package obs

import (
	"reflect"
	"testing"
	"time"

	"vivo/internal/faults"
	"vivo/internal/press"
	"vivo/internal/trace"
)

// quickHarness is a small deterministic run: 4 nodes at a light load,
// short horizon, with an optional node-crash mid-run.
func quickHarness(withFault bool) Harness {
	cfg := press.DefaultConfig(press.TCPPress)
	cfg.WorkingSetFiles = 9500
	cfg.CacheBytes = 16 << 20
	h := Harness{
		Seed:    1,
		Config:  cfg,
		Rate:    500,
		LoadFor: 20 * time.Second,
	}
	if withFault {
		h.Faults = []faults.Spec{{
			Type:   faults.NodeCrash,
			Target: 1,
			At:     8 * time.Second,
			Dur:    5 * time.Second,
		}}
	}
	return h
}

// The zero-perturbation contract: a run with latency tracking on and
// every kind of sink fed must be step-for-step and count-for-count
// identical to a bare run of the same harness. Sinks only watch.
func TestSinksDoNotPerturbTheRun(t *testing.T) {
	h := quickHarness(true)

	bare, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	h.Latency = true
	instrumented, err := h.Run(trace.NewRecorder(), NewHops())
	if err != nil {
		t.Fatal(err)
	}

	if a, b := bare.K.Steps(), instrumented.K.Steps(); a != b {
		t.Errorf("kernel steps diverge: bare %d, instrumented %d", a, b)
	}
	s1, f1 := bare.Rec.Totals()
	s2, f2 := instrumented.Rec.Totals()
	if s1 != s2 || f1 != f2 {
		t.Errorf("totals diverge: bare %d/%d, instrumented %d/%d", s1, f1, s2, f2)
	}
	if a, b := bare.Clients.Issued(), instrumented.Clients.Issued(); a != b {
		t.Errorf("issued requests diverge: %d vs %d", a, b)
	}
}

func TestHarnessIsDeterministic(t *testing.T) {
	h := quickHarness(true)
	h.Latency = true
	r1, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	s1, f1 := r1.Rec.Totals()
	s2, f2 := r2.Rec.Totals()
	if r1.K.Steps() != r2.K.Steps() || s1 != s2 || f1 != f2 {
		t.Fatal("same harness must reproduce the same run")
	}
	b1, b2 := r1.Rec.Timeline().Points, r2.Rec.Timeline().Points
	if len(b1) != len(b2) {
		t.Fatalf("timeline lengths diverge: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("timeline bin %d diverges: %+v vs %+v", i, b1[i], b2[i])
		}
	}
}

func TestBadFaultSpecIsAnErrorNotAPanic(t *testing.T) {
	h := quickHarness(false)
	h.Faults = []faults.Spec{{Type: faults.NodeCrash, Target: 99, At: time.Second, Dur: time.Second}}
	if _, err := h.Run(); err == nil {
		t.Fatal("out-of-range fault target must fail validation")
	}
}

// Hop correlation sanity: with Latency on, the accept hop must see
// (nearly) every served request, the serve hop must cover both local and
// forwarded requests, and forwarded requests must be a strict subset.
func TestHopsDecomposeServedRequests(t *testing.T) {
	h := quickHarness(false)
	h.Latency = true
	hops := NewHops()
	run, err := h.Run(hops)
	if err != nil {
		t.Fatal(err)
	}
	served, _ := run.Rec.Totals()
	if served == 0 {
		t.Fatal("no load reached the cluster")
	}
	accept := hops.Accept.TotalUnder(time.Hour).Total()
	serve := hops.Serve.TotalUnder(time.Hour).Total()
	forward := hops.Forward.TotalUnder(time.Hour).Total()
	if accept < served {
		t.Errorf("accept hop saw %d requests, served %d — admissions missing", accept, served)
	}
	if serve < served/2 {
		t.Errorf("serve hop saw only %d of %d served requests", serve, served)
	}
	if forward == 0 {
		t.Error("PRESS forwards cache misses; the forward hop cannot be empty")
	}
	if forward > accept {
		t.Errorf("forward hop (%d) cannot exceed admissions (%d)", forward, accept)
	}
}

// Without Harness.Latency the request spans are not emitted, so Hops
// must stay empty rather than mis-correlate.
func TestHopsRequireLatency(t *testing.T) {
	h := quickHarness(false)
	hops := NewHops()
	if _, err := h.Run(hops); err != nil {
		t.Fatal(err)
	}
	if n := hops.Accept.TotalUnder(time.Hour).Total(); n != 0 {
		t.Fatalf("accept hop recorded %d samples without request spans", n)
	}
}

// Every sink passed to Run sees the same stream, event for event, in the
// same order, and a nil sink is skipped rather than fed.
func TestSinksSeeTheSameStream(t *testing.T) {
	h := quickHarness(true)
	first, last := trace.NewRecorder(), trace.NewRecorder()
	run, err := h.Run(first, nil, last)
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 {
		t.Fatal("first sink saw no events on a traced run")
	}
	if !reflect.DeepEqual(first.Events(), last.Events()) {
		t.Fatalf("first sink saw %d events, last sink %d; the streams differ",
			first.Len(), last.Len())
	}
	if run.End != h.LoadFor {
		t.Fatalf("run.End = %v, want %v", run.End, h.LoadFor)
	}
}
