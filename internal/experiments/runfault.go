package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"vivo/internal/core"
	"vivo/internal/faults"
	"vivo/internal/metrics"
	"vivo/internal/obs"
	"vivo/internal/press"
	"vivo/internal/sim"
	"vivo/internal/trace"
)

// TargetNode is the node every single-node fault is injected into. Node 3
// is never the lowest-id member, so the join protocol's lowest-id logic is
// exercised by the survivors.
const TargetNode = 3

// FaultRun is the result of one phase-1 experiment.
type FaultRun struct {
	Version  press.Version
	Fault    faults.Type
	Timeline metrics.Timeline
	Obs      core.RunObservation
	Measured core.Measured
	// OfferedLoad is the request rate the clients generated.
	OfferedLoad float64

	// Latency and StageLat are filled only when Options.Latency is set:
	// the run's recorder, tracking end-to-end latency in its per-second
	// bins, and the per-stage quantile profile segmented by the same
	// boundary instants Measured uses.
	Latency  *metrics.Recorder
	StageLat *core.StageLatencies

	// SLO is filled only when Options.SLO is positive: the per-stage
	// fraction-of-requests-under-SLO profile (the same fractions are
	// folded into Measured via ApplySLO).
	SLO *core.SLOProfile

	// Hops is filled only when Options.Hops is set: accept / forward /
	// serve hop profiles segmented over the same stage windows.
	Hops []core.HopProfile
}

// RunFault performs one fault-injection experiment: warm cluster, steady
// load, a single fault at TargetNode (or the switch), observation through
// recovery, and stage extraction. When opt.TraceDir is set the run's
// event trace is written to TracePath(opt.TraceDir, v, ft).
func RunFault(v press.Version, ft faults.Type, opt Options) FaultRun {
	if opt.TraceDir == "" {
		return RunFaultTrace(v, ft, opt, nil)
	}
	fs, err := trace.CreateFile(TracePath(opt.TraceDir, v, ft))
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	fr := RunFaultTrace(v, ft, opt, fs)
	if err := fs.Close(); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return fr
}

// TracePath returns the trace file RunFault writes for (v, ft) under dir.
func TracePath(dir string, v press.Version, ft faults.Type) string {
	return filepath.Join(dir, fmt.Sprintf("%s_%s.trace.json", v, ft))
}

// RunFaultTrace is RunFault with an explicit trace sink (nil disables
// tracing, as does RunFault with an empty TraceDir). The sink receives
// the run's complete deterministic event stream; tests pass an
// in-memory sink here.
//
// The run itself is one obs.Harness configuration: the experiment layer
// only decides the schedule (a single fault at TargetNode after the
// stabilize period) and which observers ride along, then extracts stages
// from the finished run.
func RunFaultTrace(v press.Version, ft faults.Type, opt Options, sink trace.Sink) FaultRun {
	seed := opt.Seed*1000 + int64(v)*100 + int64(ft)
	cfg := opt.Config(v)
	offered := opt.offered(v)
	injectAt := opt.Stabilize
	end := opt.end()

	h := obs.Harness{
		Seed:   seed,
		Config: cfg,
		Rate:   offered,
		Faults: []faults.Spec{
			{Type: ft, Target: TargetNode, At: injectAt, Dur: opt.FaultDuration},
		},
		LoadFor: end,
		Latency: opt.Latency || opt.SLO > 0 || opt.Hops,
	}
	sinks := []trace.Sink{sink}
	var hops *obs.Hops
	if opt.Hops {
		hops = obs.NewHops()
		sinks = []trace.Sink{hops, sink}
	}
	run, err := h.Run(sinks...)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}

	tl := run.Rec.Timeline()
	obsr := core.RunObservation{
		Timeline:      tl,
		Injected:      injectAt,
		Tn:            tl.MeanThroughput(injectAt-20*time.Second, injectAt),
		End:           end,
		Instantaneous: ft.Instantaneous(),
	}

	// Repair time: the injector's mark for duration faults; for
	// instantaneous faults the repair is the (last) process restart.
	if at, ok := repairedTime(run.Rec, ft, injectAt); ok {
		obsr.Repaired = at
	} else {
		obsr.Repaired = injectAt + opt.FaultDuration
	}

	// Detection: the first service reaction after injection.
	if at, ok := detectionTime(run.Rec, injectAt); ok && at <= obsr.Repaired {
		obsr.Detected = at
		obsr.HasDetect = true
	}

	// Splintered: any live server that does not see the full membership.
	for i := 0; i < cfg.Nodes; i++ {
		if s := run.Deployment.Server(i); s != nil && s.Alive() && len(s.Members()) < cfg.Nodes {
			obsr.Splintered = true
		}
	}

	fr := FaultRun{
		Version:     v,
		Fault:       ft,
		Timeline:    tl,
		Obs:         obsr,
		Measured:    core.Extract(obsr),
		OfferedLoad: offered,
	}
	if opt.Latency {
		sl := core.ExtractLatency(obsr, run.Rec)
		fr.Latency = run.Rec
		fr.StageLat = &sl
	}
	if opt.SLO > 0 {
		p := core.ExtractSLO(obsr, run.Rec, opt.SLO)
		fr.SLO = &p
		fr.Measured.ApplySLO(p)
	}
	if hops != nil {
		fr.Hops = core.StageHops(obsr, []core.NamedHop{
			{Name: "accept", Rec: hops.Accept},
			{Name: "forward", Rec: hops.Forward},
			{Name: "serve", Rec: hops.Serve},
		})
	}
	return fr
}

// RunFaultColumn runs every Table-2 fault against one version — a single
// column of the campaign matrix — fanning the independent runs out across
// opt.Parallel workers. Results are ordered like faults.AllTypes and are
// identical at any worker count.
func RunFaultColumn(v press.Version, opt Options) []FaultRun {
	out := make([]FaultRun, len(faults.AllTypes))
	ForEach(len(faults.AllTypes), opt.workers(), func(i int) {
		out[i] = RunFault(v, faults.AllTypes[i], opt)
	})
	return out
}

// repairedTime locates the component-repair instant in the marks.
func repairedTime(rec *metrics.Recorder, ft faults.Type, after sim.Time) (sim.Time, bool) {
	if ft.Instantaneous() {
		// Repair = the last process restart triggered by the fault.
		var last sim.Time
		found := false
		for _, m := range rec.Marks() {
			if m.At > after && strings.Contains(m.Label, "press started") {
				last, found = m.At, true
			}
		}
		return last, found
	}
	for _, m := range rec.Marks() {
		if m.At > after && m.Label == faults.MarkRepaired {
			return m.At, true
		}
	}
	return 0, false
}

// detectionTime locates the first service reaction (reconfiguration,
// heartbeat timeout, fail-fast) after injection.
func detectionTime(rec *metrics.Recorder, after sim.Time) (sim.Time, bool) {
	for _, m := range rec.Marks() {
		if m.At < after {
			continue
		}
		if strings.Contains(m.Label, "reconfigured") ||
			strings.Contains(m.Label, "heartbeat timeout") ||
			strings.Contains(m.Label, "fail-fast") {
			return m.At, true
		}
	}
	return 0, false
}

// String renders a one-line summary of the run.
func (fr FaultRun) String() string {
	m := fr.Measured
	return fmt.Sprintf("%s under %s: Tn=%.0f A=%.0fs@%.0f C@%.0f E@%.0f splintered=%v",
		fr.Version, fr.Fault, m.Tn, m.DA.Seconds(), m.TA, m.TC, m.TE, m.Splintered)
}
