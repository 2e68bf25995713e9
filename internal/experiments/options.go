package experiments

import (
	"runtime"
	"time"

	"vivo/internal/core"
	"vivo/internal/press"
)

// Options fixes the scale and timing of the experiment runs.
type Options struct {
	// Seed makes every run deterministic.
	Seed int64

	// FullScale selects the paper-sized deployment (128 MiB caches,
	// 576 MiB working set). Quick scale shrinks caches and working set
	// proportionally, preserving behaviour while running much faster.
	FullScale bool

	// LoadFraction is the offered load during fault runs, as a fraction
	// of the version's Table-1 capacity. The paper drives the server
	// near peak; fault-reaction shapes are load-fraction invariant, so
	// quick runs use a lower fraction.
	LoadFraction float64

	// Stabilize is the pre-injection steady period; FaultDuration the
	// component downtime for transient faults; Observe the post-repair
	// window.
	Stabilize     time.Duration
	FaultDuration time.Duration
	Observe       time.Duration

	// MeasureTn measures each version's saturation throughput with a
	// dedicated run; when false the model uses the Table-1 calibration
	// targets (our cost model reproduces them within 0.5%).
	MeasureTn bool

	// Parallel bounds the number of experiment runs executing
	// concurrently (each on its own sim.Kernel). Zero or negative means
	// runtime.GOMAXPROCS(0); 1 forces strictly serial execution. Every
	// run derives its seed from Seed alone, so the worker count changes
	// wall-clock time only: campaigns are bit-identical at any setting,
	// and RunCampaign memoizes ignoring this field.
	Parallel int

	// Latency turns on latency tracking in every run: FaultRun.Latency
	// and FaultRun.StageLat are filled, and traced runs additionally emit
	// per-request duration spans. Recording draws no randomness and
	// schedules no events, so results are bit-identical with the flag on
	// or off (TestLatencyDeterministic and the tracediff test pin this);
	// campaign memoization ignores it like the other side-effect fields.
	Latency bool

	// SLO, when positive, measures every run against a latency SLO
	// threshold (implies latency recording): FaultRun.SLO is filled and
	// Measured gains the per-stage fraction-of-requests-under-SLO that
	// SLOAvailability folds. Unlike Latency, the threshold changes the
	// extracted Measured, so campaign memoization keys on it.
	SLO time.Duration

	// Hops feeds the run to the per-hop decomposition sink (implies
	// latency recording — the hop correlation rides the per-request
	// trace spans): FaultRun.Hops is filled with accept/forward/serve stage
	// profiles. Results are bit-identical with the flag on or off, so
	// memoization ignores it like Latency.
	Hops bool

	// TraceDir, when non-empty, makes every RunFault write a
	// Perfetto-loadable event trace to
	// TraceDir/<version>_<fault>.trace.json (see TracePath). It is a
	// side-effect-only field: traces never feed back into results, so
	// campaign memoization ignores it (and Options stays comparable —
	// a requirement of the campaign cache key).
	TraceDir string

	// Env supplies the phase-2 environmental durations.
	Env core.Environment
}

// workers returns the effective worker-pool size for these options.
func (o Options) workers() int {
	if o.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

// memoKey normalizes the options for campaign memoization: Parallel does
// not affect results (same seed ⇒ bit-identical campaign at any worker
// count), and TraceDir and Latency are pure side effects (a campaign
// stores Measured only), so none may split the cache.
func (o Options) memoKey() Options {
	o.Parallel = 0
	o.TraceDir = ""
	o.Latency = false
	o.Hops = false
	// SLO stays: the threshold is baked into the cached Measured.
	return o
}

// Full returns paper-scale options (used by cmd/pressbench and recorded in
// EXPERIMENTS.md).
func Full() Options {
	return Options{
		Seed:          1,
		FullScale:     true,
		LoadFraction:  0.90,
		Stabilize:     30 * time.Second,
		FaultDuration: 90 * time.Second,
		Observe:       150 * time.Second,
		MeasureTn:     true,
		Env:           core.DefaultEnvironment(),
	}
}

// Quick returns reduced-scale options for tests and benchmarks: the same
// protocol behaviour on a smaller working set at a lower load fraction.
func Quick() Options {
	return Options{
		Seed:          1,
		FullScale:     false,
		LoadFraction:  0.5,
		Stabilize:     30 * time.Second,
		FaultDuration: 60 * time.Second,
		Observe:       120 * time.Second,
		MeasureTn:     false,
		Env:           core.DefaultEnvironment(),
	}
}

// Config builds the press configuration for the options' scale.
func (o Options) Config(v press.Version) press.Config {
	cfg := press.DefaultConfig(v)
	if !o.FullScale {
		cfg.WorkingSetFiles = 9500
		cfg.CacheBytes = 16 << 20
	}
	return cfg
}

// offered returns the request rate for fault runs of version v.
func (o Options) offered(v press.Version) float64 {
	return o.LoadFraction * press.Table1Throughput(v)
}

// end returns the total run length.
func (o Options) end() time.Duration {
	return o.Stabilize + o.FaultDuration + o.Observe
}
