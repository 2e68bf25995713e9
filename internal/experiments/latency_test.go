package experiments

import (
	"bytes"
	"strings"
	"testing"

	"vivo/internal/faults"
	"vivo/internal/press"
	"vivo/internal/trace"
)

// latencyReport renders everything the latency flag surfaces for one run:
// the percentile timeline, the stage profile, the raw histogram buckets,
// and the CSV export. Byte-comparing this catches any nondeterminism in
// recording, binning, or rendering.
func latencyReport(fr FaultRun) string {
	var b strings.Builder
	b.WriteString(RenderLatencyTimeline(fr))
	b.WriteString(fr.Latency.Total().Dump())
	b.WriteString(fr.Latency.LatencyTimeline().CSV())
	return b.String()
}

// TestLatencyDeterministic is the latency twin of TestTraceDeterministic:
// the same seed produces byte-identical latency reports — across repeated
// runs, and across campaigns at different worker counts.
func TestLatencyDeterministic(t *testing.T) {
	opt := traceTestOpt()
	opt.Latency = true

	a := latencyReport(RunFault(press.TCPPressHB, faults.NodeCrash, opt))
	b := latencyReport(RunFault(press.TCPPressHB, faults.NodeCrash, opt))
	if a == "" {
		t.Fatal("latency report is empty")
	}
	if a != b {
		t.Fatalf("same seed produced different latency reports:\n%s\nvs\n%s", a, b)
	}

	opt2 := opt
	opt2.Seed = 2
	c := latencyReport(RunFault(press.TCPPressHB, faults.NodeCrash, opt2))
	if a == c {
		t.Fatal("different seeds produced identical latency reports")
	}

	if testing.Short() {
		t.Skip("skipping parallel latency-table comparison in -short mode")
	}

	// The full table at Parallel=1 vs Parallel=8: each run owns a private
	// kernel and recorder, so the worker count must not leak into any cell.
	o1, o8 := opt, opt
	o1.Parallel, o8.Parallel = 1, 8
	t1 := RenderLatencyTable(LatencyTable(o1, faults.NodeCrash))
	t8 := RenderLatencyTable(LatencyTable(o8, faults.NodeCrash))
	if t1 != t8 {
		t.Fatalf("Parallel=1 and Parallel=8 latency tables differ:\n%s\nvs\n%s", t1, t8)
	}
	if !strings.Contains(t1, press.VIAPress5.String()) {
		t.Fatalf("table is missing versions:\n%s", t1)
	}
}

// TestLatencyZeroPerturbation proves the latency instrumentation is a pure
// observer: for the same seed, a traced run with latency recording on
// replays the exact event sequence of a run with it off, plus only the
// per-request spans. cmd/tracediff implements the same comparison for
// trace files on disk.
func TestLatencyZeroPerturbation(t *testing.T) {
	opt := traceTestOpt()
	off := renderTrace(t, press.TCPPressHB, faults.LinkDown, opt)

	lopt := opt
	lopt.Latency = true
	on := renderTrace(t, press.TCPPressHB, faults.LinkDown, lopt)

	pa, err := trace.ParseJSON(bytes.NewReader(off))
	if err != nil {
		t.Fatalf("parse latency-off trace: %v", err)
	}
	pb, err := trace.ParseJSON(bytes.NewReader(on))
	if err != nil {
		t.Fatalf("parse latency-on trace: %v", err)
	}

	// The traces must actually differ — by the request spans.
	d := trace.Diff(pa, pb)
	if d == nil {
		t.Fatal("latency-on trace is identical to latency-off: request spans missing")
	}
	if !strings.Contains(d.A+d.B, trace.EvRequest) {
		t.Fatalf("first divergence is not a request span:\n%s", d)
	}

	// Strip the request spans (and the metadata records, whose placement
	// follows first track appearance): everything else — every send, recv,
	// membership change, queue-depth sample — must line up exactly.
	strip := func(evs []trace.ParsedEvent) []trace.ParsedEvent {
		out := evs[:0:0]
		for _, e := range evs {
			if e.Meta() || e.Name == trace.EvRequest {
				continue
			}
			out = append(out, e)
		}
		return out
	}
	if d := trace.Diff(strip(pa), strip(pb)); d != nil {
		t.Fatalf("latency instrumentation perturbed the event stream:\n%s", d)
	}
}
