package obs

import (
	"reflect"
	"testing"
	"time"

	"vivo/internal/faults"
	"vivo/internal/press"
	"vivo/internal/trace"
)

// teeProbe keeps every event its tee sees, for comparing the probe
// stream with the external sink's.
type teeProbe struct{ trace.Recorder }

func (p *teeProbe) Attach(rt *Runtime) { rt.Tee(&p.Recorder) }
func (p *teeProbe) Finalize(*Run)      {}

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
		h.Faults = []FaultSpec{{
			Type:   faults.NodeCrash,
			Target: 1,
			At:     8 * time.Second,
			Dur:    5 * time.Second,
		}}
	}
	return h
}

// The zero-perturbation contract: a run with every probe attached must
// be step-for-step and count-for-count identical to a bare run of the
// same harness. Probes only watch.
func TestProbesDoNotPerturbTheRun(t *testing.T) {
	h := quickHarness(true)

	bare, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := h.Run(
		&Throughput{}, &Latency{}, &teeProbe{}, &QueueDepth{}, &Hops{},
	)
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
	p1, p2 := &Throughput{}, &Throughput{}
	r1, err := h.Run(p1, &Latency{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Run(p2, &Latency{})
	if err != nil {
		t.Fatal(err)
	}
	s1, f1 := r1.Rec.Totals()
	s2, f2 := r2.Rec.Totals()
	if r1.K.Steps() != r2.K.Steps() || s1 != s2 || f1 != f2 {
		t.Fatal("same harness must reproduce the same run")
	}
	b1, b2 := p1.Timeline.Points, p2.Timeline.Points
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
	h.Faults = []FaultSpec{{Type: faults.NodeCrash, Target: 99, At: time.Second, Dur: time.Second}}
	if _, err := h.Run(); err == nil {
		t.Fatal("out-of-range fault target must fail validation")
	}
}

// Hop correlation sanity: with Latency wired, the accept hop must see
// (nearly) every served request, the serve hop must cover both local and
// forwarded requests, and forwarded requests must be a strict subset.
func TestHopsDecomposeServedRequests(t *testing.T) {
	h := quickHarness(false)
	hops := &Hops{}
	run, err := h.Run(&Latency{}, hops)
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

// Without a Latency probe the request spans are not emitted, so Hops
// must stay empty rather than mis-correlate.
func TestHopsRequireLatencyProbe(t *testing.T) {
	h := quickHarness(false)
	hops := &Hops{}
	if _, err := h.Run(hops); err != nil {
		t.Fatal(err)
	}
	if n := hops.Accept.TotalUnder(time.Hour).Total(); n != 0 {
		t.Fatalf("accept hop recorded %d samples without request spans", n)
	}
}

func TestQueueDepthObservesCongestion(t *testing.T) {
	// Depth counters fire only when the send path backs up: run near
	// capacity with a crashed peer so the TCP buffers actually fill.
	h := quickHarness(true)
	h.Rate = press.Table1Throughput(press.TCPPress)
	qd := &QueueDepth{}
	if _, err := h.Run(qd); err != nil {
		t.Fatal(err)
	}
	if qd.OutSamples == 0 {
		t.Fatal("no queue-depth counter events observed")
	}
	if qd.MaxOut < 0 || qd.MaxPeer < 0 {
		t.Fatalf("negative depth: out=%d peer=%d", qd.MaxOut, qd.MaxPeer)
	}
}

// A probe's tee and the external Harness.Sink see the same stream, event
// for event, in the same order (the contract in doc.go).
func TestEventLogMatchesExternalSink(t *testing.T) {
	h := quickHarness(true)
	external := trace.NewRecorder()
	h.Sink = external
	tee := &teeProbe{}
	run, err := h.Run(tee)
	if err != nil {
		t.Fatal(err)
	}
	if tee.Len() == 0 {
		t.Fatal("probe tee saw no events on a traced run")
	}
	if !reflect.DeepEqual(tee.Events(), external.Events()) {
		t.Fatalf("probe tee saw %d events, external sink %d; the streams differ",
			tee.Len(), external.Len())
	}
	if run.End != h.LoadFor {
		t.Fatalf("run.End = %v, want %v", run.End, h.LoadFor)
	}
}
