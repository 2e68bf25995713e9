package obs

import (
	"fmt"
	"math/rand"
	"time"

	"vivo/internal/faults"
	"vivo/internal/metrics"
	"vivo/internal/press"
	"vivo/internal/sim"
	"vivo/internal/trace"
	"vivo/internal/workload"
)

// Harness describes one instrumented run: a warm PRESS deployment under
// steady Poisson load, an optional fault schedule, and an observation
// horizon. Run executes it with any set of probes attached.
//
// Determinism contract: the run is a pure function of the harness fields
// — same harness, same results, bit for bit — and of nothing else.
// Probes and the external Sink observe the run without perturbing it.
type Harness struct {
	// Seed drives the kernel; the default Zipf sampler derives its own
	// source from Seed+7 (the historical harness convention, kept so
	// refactored callers reproduce their pre-refactor streams exactly).
	Seed int64
	// Config is the deployment geometry (press.DefaultConfig plus any
	// scale shrink).
	Config press.Config
	// Rate is the offered client load in requests/second.
	Rate float64
	// Sampler picks requested documents; nil selects the deterministic
	// Zipf trace over Config's working set.
	Sampler workload.Sampler
	// Faults is the injection schedule; entries are validated before the
	// kernel runs, so a bad spec is an error, not a mid-run panic.
	Faults []faults.Spec
	// LoadFor is how long clients generate load (the observation end).
	LoadFor sim.Time
	// Drain, when positive, stops the clients at LoadFor and keeps the
	// kernel running Drain longer so every outstanding client timer
	// resolves (the chaos conservation oracles need this).
	Drain time.Duration
	// Sink, when non-nil, additionally receives the run's full event
	// stream (e.g. a trace.FileSink). It is fed after every
	// probe-registered sink. Pass an untyped nil to disable — a typed
	// nil pointer in the interface would be fed and dereferenced.
	Sink trace.Sink
	// Checkpoints, when non-empty, must be strictly ascending and at
	// most LoadFor: the kernel runs in segments and OnCheckpoint fires
	// between them with the live run (the chaos soak mode judges
	// invariants mid-run this way). Checkpoint callbacks are observers:
	// like probes they must not perturb the run — no randomness, no
	// scheduled events. Segmented running emits one kernel "run" trace
	// event per segment; otherwise the event stream is untouched.
	Checkpoints []sim.Time
	// OnCheckpoint receives the 0-based checkpoint index and the run
	// state with the virtual clock paused at (or just before, if the
	// event queue went quiet early) Checkpoints[i].
	OnCheckpoint func(i int, run *Run)
}

// Runtime is what a probe sees at attach time: the kernel and the
// throughput recorder exist; nothing has emitted yet.
type Runtime struct {
	K   *sim.Kernel
	Rec *metrics.Recorder

	sinks []trace.Sink
}

// Tee registers a trace sink; the harness fans the run's event stream
// out to every registered sink in registration order.
func (rt *Runtime) Tee(s trace.Sink) { rt.sinks = append(rt.sinks, s) }

// Probe is one pluggable observation: attach to the run before it
// starts, finalize into a typed result after it stops. Implementations
// must not perturb the run (no randomness, no scheduled events).
type Probe interface {
	Attach(rt *Runtime)
	Finalize(run *Run)
}

// Run is the completed run handed to Finalize and returned to the
// caller: the kernel (virtual clock, step count), the throughput
// recorder (timeline, marks, totals), the clients (conservation
// counters), and the deployment (membership, inventory).
type Run struct {
	K          *sim.Kernel
	Rec        *metrics.Recorder
	Clients    *workload.Clients
	Deployment *press.Deployment
	// End is when load generation stopped (= Harness.LoadFor); with a
	// drain the kernel ran to End+Drain.
	End sim.Time
}

// multiSink fans one event stream out to several sinks in order.
type multiSink []trace.Sink

func (m multiSink) Record(e trace.Event) {
	for _, s := range m {
		s.Record(e)
	}
}

// Run executes the harness with the given probes. The phases are, in
// order: kernel + recorder construction, probe attach, tracer assembly,
// deployment start + cache warm-up, client start, fault scheduling,
// load horizon, optional drain, probe finalize. An error means a fault
// spec was invalid — no simulation ran.
func (h Harness) Run(probes ...Probe) (*Run, error) {
	k := sim.New(h.Seed)
	rec := metrics.NewRecorder(k, time.Second)

	rt := &Runtime{K: k, Rec: rec}
	for _, p := range probes {
		p.Attach(rt)
	}
	sinks := rt.sinks
	if h.Sink != nil {
		sinks = append(sinks, h.Sink)
	}
	switch len(sinks) {
	case 0:
		// tracing stays disabled: emitters cost one nil check each
	case 1:
		k.SetTracer(trace.New(sinks[0]))
	default:
		k.SetTracer(trace.New(multiSink(sinks)))
	}

	d := press.NewDeployment(k, h.Config)
	d.Events = func(l string) { rec.MarkNow(l) }
	d.Start()
	d.WarmStart()

	sampler := h.Sampler
	if sampler == nil {
		sampler = workload.NewTrace(workload.TraceConfig{
			Files:    h.Config.WorkingSetFiles,
			FileSize: int(h.Config.FileSize),
			ZipfS:    1.2,
		}, rand.New(rand.NewSource(h.Seed+7)))
	}
	cl := workload.NewClients(k, workload.DefaultClients(h.Rate, h.Config.Nodes), sampler, d, rec)
	cl.Start()

	if len(h.Faults) > 0 {
		inj := faults.NewInjector(k, d, rec)
		for _, f := range h.Faults {
			if err := inj.Schedule(f.Type, f.Target, f.At, f.Dur); err != nil {
				return nil, fmt.Errorf("obs: bad fault spec %s: %v", f, err)
			}
		}
	}

	prev := sim.Time(0)
	for i, cp := range h.Checkpoints {
		if cp <= prev || cp > h.LoadFor {
			return nil, fmt.Errorf("obs: checkpoint %d at %v outside (%v, LoadFor %v]", i, cp, prev, h.LoadFor)
		}
		prev = cp
	}

	run := &Run{K: k, Rec: rec, Clients: cl, Deployment: d, End: h.LoadFor}
	for i, cp := range h.Checkpoints {
		k.Run(cp)
		if h.OnCheckpoint != nil {
			h.OnCheckpoint(i, run)
		}
	}

	k.Run(h.LoadFor)
	if h.Drain > 0 {
		cl.Stop()
		k.Run(h.LoadFor + h.Drain)
	}

	for _, p := range probes {
		p.Finalize(run)
	}
	return run, nil
}
