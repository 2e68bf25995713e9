package vivo_test

// One benchmark per table and figure of the paper's evaluation section,
// plus the design-choice ablations called out in DESIGN.md. Each iteration
// runs a complete experiment on the reduced (Quick) scale so the full
// bench suite finishes in minutes; cmd/pressbench -full reruns everything
// at paper scale and EXPERIMENTS.md records those results.

import (
	"io"
	"strings"
	"testing"
	"time"

	"vivo/internal/cluster"
	"vivo/internal/comm"
	"vivo/internal/core"
	"vivo/internal/experiments"
	"vivo/internal/faults"
	"vivo/internal/metrics"
	"vivo/internal/osmodel"
	"vivo/internal/press"
	"vivo/internal/sim"
	subvia "vivo/internal/substrate/via"
	"vivo/internal/tcpsim"
	"vivo/internal/trace"
	"vivo/internal/viasim"
	"vivo/internal/workload"
)

// benchOpt is the shared experiment configuration; RunCampaign memoizes on
// it, so the figure benchmarks after the first share one phase-1 campaign.
var benchOpt = experiments.Quick()

// BenchmarkTable1 measures the near-peak throughput of each version (the
// paper's Table 1) and reports it as req/s.
func BenchmarkTable1(b *testing.B) {
	for _, v := range press.Versions {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				k := sim.New(int64(i) + 1)
				tput = press.MeasureThroughput(k, benchOpt.Config(v),
					1.3*press.Table1Throughput(v), 10*time.Second, 20*time.Second)
			}
			b.ReportMetric(tput, "req/s")
			b.ReportMetric(tput/press.Table1Throughput(v), "ratio-to-paper")
		})
	}
}

func benchTimeline(b *testing.B, fn func(experiments.Options) []experiments.FaultRun) {
	b.Helper()
	var runs []experiments.FaultRun
	for i := 0; i < b.N; i++ {
		runs = fn(benchOpt)
	}
	lost := 0.0
	for _, fr := range runs {
		lost += fr.Measured.Tn - fr.Measured.TC
	}
	b.ReportMetric(lost/float64(len(runs)), "degraded-reqps")
}

// BenchmarkFigure2 regenerates the transient-link-failure timelines.
func BenchmarkFigure2(b *testing.B) { benchTimeline(b, experiments.Figure2) }

// BenchmarkFigure3 regenerates the node-crash timelines.
func BenchmarkFigure3(b *testing.B) { benchTimeline(b, experiments.Figure3) }

// BenchmarkFigure4 regenerates the memory-exhaustion timelines.
func BenchmarkFigure4(b *testing.B) { benchTimeline(b, experiments.Figure4) }

// BenchmarkFigure5 regenerates the NULL-pointer fault timelines.
func BenchmarkFigure5(b *testing.B) { benchTimeline(b, experiments.Figure5) }

// BenchmarkFigure6 regenerates the modeled unavailability/performability
// comparison and reports the key numbers for VIA-PRESS-5 at an application
// fault rate of one per day.
func BenchmarkFigure6(b *testing.B) {
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		c := experiments.RunCampaign(benchOpt)
		rows = experiments.Figure6(c)
	}
	for _, r := range rows {
		if r.Version == press.VIAPress5 && r.AppMTTF == core.Day {
			b.ReportMetric(r.Unavailability, "unavailability")
			b.ReportMetric(r.Performability, "performability")
		}
	}
}

func benchScenario(b *testing.B, fn func(*experiments.Campaign) []experiments.ScenarioRow) {
	b.Helper()
	var rows []experiments.ScenarioRow
	for i := 0; i < b.N; i++ {
		c := experiments.RunCampaign(benchOpt)
		rows = fn(c)
	}
	for _, r := range rows {
		if r.Version == press.VIAPress5 {
			b.ReportMetric(r.Performability, "P(VIA-5)-last-setting")
		}
	}
}

// BenchmarkFigure7 regenerates the packet-drop sensitivity scenario.
func BenchmarkFigure7(b *testing.B) { benchScenario(b, experiments.Figure7) }

// BenchmarkFigure8 regenerates the extra-software-bug scenario.
func BenchmarkFigure8(b *testing.B) { benchScenario(b, experiments.Figure8) }

// BenchmarkFigure9 regenerates the system-crash scenario.
func BenchmarkFigure9(b *testing.B) { benchScenario(b, experiments.Figure9) }

// BenchmarkFigure10 regenerates the combined pessimistic VIA load.
func BenchmarkFigure10(b *testing.B) { benchScenario(b, experiments.Figure10) }

// BenchmarkCrossover regenerates the ~4x crossover analysis and reports
// the factor for VIA-PRESS-5 vs TCP-PRESS-HB.
func BenchmarkCrossover(b *testing.B) {
	var rows []experiments.CrossoverRow
	for i := 0; i < b.N; i++ {
		c := experiments.RunCampaign(benchOpt)
		rows = experiments.Crossover(c)
	}
	for _, r := range rows {
		if r.TCP == press.TCPPressHB && r.VIA == press.VIAPress5 {
			b.ReportMetric(r.Factor, "crossover-factor")
		}
	}
}

// BenchmarkExtension regenerates the ROBUST-PRESS (§7 proposal) comparison
// and reports its performability under the pessimistic user-level load.
func BenchmarkExtension(b *testing.B) {
	var res experiments.ExtensionResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunExtension(benchOpt)
	}
	for _, r := range res.Pessimistic {
		if r.Version == press.RobustPress {
			b.ReportMetric(r.Performability, "P(robust)-pessimistic")
		}
	}
}

// ---- Campaign engine: serial vs parallel ----

// benchCampaign runs complete phase-1 campaigns at the given worker
// count. Seeds are varied per iteration (and offset per worker count) so
// every iteration measures a real campaign rather than a memoized one;
// determinism guarantees the serial and parallel variants still do
// identical work per seed.
func benchCampaign(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		opt := experiments.Quick()
		opt.Parallel = workers
		opt.Seed = int64(1_000_000*workers + i + 2)
		experiments.RunCampaign(opt)
	}
}

// BenchmarkCampaignSerial measures the full 60-run campaign on one
// worker — the pre-parallel-engine behaviour.
func BenchmarkCampaignSerial(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkCampaignParallel4 measures the same campaign fanned out over
// four workers; on a ≥4-core machine it should run ≥2× faster than
// BenchmarkCampaignSerial (EXPERIMENTS.md records reference numbers).
func BenchmarkCampaignParallel4(b *testing.B) { benchCampaign(b, 4) }

// ---- Ablations (DESIGN.md §8) ----

// BenchmarkAblationHeartbeat sweeps the heartbeat timeout and reports the
// measured detection latency for a link fault: the detection-speed vs
// false-positive trade-off behind TCP-PRESS-HB.
func BenchmarkAblationHeartbeat(b *testing.B) {
	for _, timeout := range []time.Duration{5 * time.Second, 15 * time.Second, 45 * time.Second} {
		timeout := timeout
		b.Run(timeout.String(), func(b *testing.B) {
			var detect time.Duration
			for i := 0; i < b.N; i++ {
				cfg := benchOpt.Config(press.TCPPressHB)
				cfg.HBTimeout = timeout
				detect = measureLinkDetection(cfg)
			}
			b.ReportMetric(detect.Seconds(), "detect-s")
		})
	}
}

// loadedDeployment starts the ablations' common run: a warm deployment
// of cfg under 2000 Zipf clients, on a fresh kernel seeded with seed.
// The trace draws from the kernel's RNG after warm-up, so this order of
// construction fixes every random draw of the run. Deployment events
// are marked on the returned recorder.
func loadedDeployment(seed int64, cfg press.Config) (*sim.Kernel, *press.Deployment, *metrics.Recorder) {
	k := sim.New(seed)
	rec := metrics.NewRecorder(k, time.Second)
	d := press.NewDeployment(k, cfg)
	d.Events = func(l string) { rec.MarkNow(l) }
	d.Start()
	d.WarmStart()
	tr := workload.NewTrace(workload.TraceConfig{
		Files: cfg.WorkingSetFiles, FileSize: int(cfg.FileSize), ZipfS: 1.2,
	}, k.Rand())
	workload.NewClients(k, workload.DefaultClients(2000, cfg.Nodes), tr, d, rec).Start()
	return k, d, rec
}

func measureLinkDetection(cfg press.Config) time.Duration {
	k, d, rec := loadedDeployment(77, cfg)
	k.Run(30 * time.Second)
	d.HW.Node(3).Link.Up = false
	injected := k.Now()
	k.Run(30*time.Second + 3*cfg.HBTimeout + 10*time.Second)
	for _, m := range rec.Marks() {
		if m.At > injected && strings.Contains(m.Label, "reconfigured") {
			return m.At - injected
		}
	}
	return -1
}

// BenchmarkAblationPreallocation compares VIA with pre-allocated channel
// resources (the real design) against an ablated dynamic-buffer VIA under
// a kernel-memory exhaustion fault, reporting availability over the run.
// Pre-allocation sails through; the ablated version stalls and even breaks
// channels (fail-stop misfires on memory pressure).
func BenchmarkAblationPreallocation(b *testing.B) {
	for _, dynamic := range []bool{false, true} {
		dynamic := dynamic
		name := "preallocated"
		if dynamic {
			name = "dynamic-buffers"
		}
		b.Run(name, func(b *testing.B) {
			var avail float64
			for i := 0; i < b.N; i++ {
				cfg := benchOpt.Config(press.VIAPress0)
				vo := cfg.Substrate.(subvia.Options)
				vo.Config.DynamicBuffers = dynamic
				cfg.Substrate = vo
				avail = kernelMemoryAvailability(cfg)
			}
			b.ReportMetric(avail, "availability")
		})
	}
}

func kernelMemoryAvailability(cfg press.Config) float64 {
	k, d, rec := loadedDeployment(99, cfg)
	inj := faults.NewInjector(k, d, rec)
	inj.Schedule(faults.KernelMemory, 3, 30*time.Second, 60*time.Second)
	k.Run(150 * time.Second)
	return rec.Availability()
}

// BenchmarkAblationRemerge compares the paper's PRESS (splinters stay
// until an operator resets) against the §6.2 fix (a membership protocol
// that re-merges), reporting availability across a heartbeat false
// splinter.
func BenchmarkAblationRemerge(b *testing.B) {
	for _, remerge := range []bool{false, true} {
		remerge := remerge
		name := "no-remerge"
		if remerge {
			name = "remerge"
		}
		b.Run(name, func(b *testing.B) {
			var members float64
			for i := 0; i < b.N; i++ {
				cfg := benchOpt.Config(press.TCPPressHB)
				cfg.Remerge = remerge
				members = splinterEndMembers(cfg)
			}
			b.ReportMetric(members, "final-members-node0")
		})
	}
}

func splinterEndMembers(cfg press.Config) float64 {
	k, d, _ := loadedDeployment(55, cfg)
	k.Run(30 * time.Second)
	d.HW.Node(3).Link.Up = false
	k.After(60*time.Second, func() { d.HW.Node(3).Link.Up = true })
	k.Run(300 * time.Second)
	return float64(len(d.Server(0).Members()))
}

// BenchmarkAblationFraming contrasts message-based and byte-stream framing
// under an off-by-N size fault: the byte stream desynchronizes and kills
// the receiver, while message boundaries confine the damage. The metric is
// the number of process restarts the single fault caused.
func BenchmarkAblationFraming(b *testing.B) {
	for _, v := range []press.Version{press.TCPPress, press.VIAPress0} {
		v := v
		name := "byte-stream"
		if v.UsesVIA() {
			name = "message-based"
		}
		b.Run(name, func(b *testing.B) {
			var restarts float64
			for i := 0; i < b.N; i++ {
				fr := experiments.RunFault(v, faults.BadSizeOffset, benchOpt)
				n := 0
				for _, m := range fr.Timeline.Marks {
					if m.At > fr.Obs.Injected && strings.Contains(m.Label, "press started") {
						n++
					}
				}
				restarts = float64(n)
			}
			b.ReportMetric(restarts, "restarts")
		})
	}
}

// ---- Tracing overhead (DESIGN.md §9) ----

// BenchmarkTracing measures what event tracing adds to a complete traced
// fault run: disabled (nil sink — the default for every experiment), the
// in-memory recorder, and the Perfetto JSON writer into io.Discard.
// Disabled must be indistinguishable from the pre-tracing code path;
// the sinks put a price on observing a run.
func BenchmarkTracing(b *testing.B) {
	opt := experiments.Quick()
	opt.Stabilize = 5 * time.Second
	opt.FaultDuration = 10 * time.Second
	opt.Observe = 10 * time.Second
	opt.LoadFraction = 0.1
	run := func(b *testing.B, sink func() trace.Sink) {
		b.Helper()
		var tput float64
		for i := 0; i < b.N; i++ {
			fr := experiments.RunFaultTrace(press.TCPPressHB, faults.LinkDown, opt, sink())
			tput = fr.Measured.Tn
		}
		// Identical across sub-benchmarks: tracing must not change results.
		b.ReportMetric(tput, "normal-reqps")
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, func() trace.Sink { return nil })
	})
	b.Run("recorder", func(b *testing.B) {
		run(b, func() trace.Sink { return &trace.Recorder{} })
	})
	b.Run("json-discard", func(b *testing.B) {
		run(b, func() trace.Sink { return trace.NewJSON(io.Discard) })
	})
}

// ---- Latency-recording overhead (DESIGN.md §11) ----

// BenchmarkLatencyRecorder measures what end-to-end latency recording
// adds to a complete fault run: off (the default — a nil recorder makes
// every RecordLatency a pointer check) vs on (birth stamping, histogram
// observes, per-stage extraction). The guard: recording must stay within
// a few percent of the disabled path, because a histogram Observe is two
// integer index computations and an increment, with no allocation after
// the bin slice stops growing.
func BenchmarkLatencyRecorder(b *testing.B) {
	opt := experiments.Quick()
	opt.Stabilize = 5 * time.Second
	opt.FaultDuration = 10 * time.Second
	opt.Observe = 10 * time.Second
	opt.LoadFraction = 0.1
	run := func(b *testing.B, latency bool) {
		b.Helper()
		o := opt
		o.Latency = latency
		var tput float64
		for i := 0; i < b.N; i++ {
			fr := experiments.RunFault(press.TCPPressHB, faults.NodeCrash, o)
			tput = fr.Measured.Tn
		}
		// Identical across sub-benchmarks: recording must not change results.
		b.ReportMetric(tput, "normal-reqps")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// Micro-benchmarks of the simulators themselves: simulation cost of moving
// one 8 KiB message end to end (wall-clock per message and kernel events
// per message).

// BenchmarkSubstrateTCP measures the simulated-TCP data path.
func BenchmarkSubstrateTCP(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig())
	osA := osmodel.New(k, cl.Node(0), 1<<30)
	osB := osmodel.New(k, cl.Node(1), 1<<30)
	sa := tcpsim.NewStack(k, cl, cl.Node(0), osA, tcpsim.DefaultConfig())
	sb := tcpsim.NewStack(k, cl, cl.Node(1), osB, tcpsim.DefaultConfig())
	var src *tcpsim.Conn
	got := 0
	sb.Listen(func(c *tcpsim.Conn) {
		c.Handler = tcpsim.Handler{OnMessage: func(_ *tcpsim.Conn, d *tcpsim.Delivered) {
			got++
			d.Release()
		}}
	})
	sa.Dial(1, func(c *tcpsim.Conn, err error) { src = c })
	k.Run(k.Now() + time.Second)
	if src == nil {
		b.Fatal("no connection")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(comm.SendParams{Msg: comm.Message{Kind: 1, Size: 8192}}); err != nil {
			b.Fatal(err)
		}
		k.Run(k.Now() + 10*time.Millisecond)
	}
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
	b.ReportMetric(float64(k.Steps())/float64(b.N), "events/msg")
}

// BenchmarkSubstrateVIA measures the simulated-VIA data path.
func BenchmarkSubstrateVIA(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig())
	osA := osmodel.New(k, cl.Node(0), 1<<30)
	osB := osmodel.New(k, cl.Node(1), 1<<30)
	na := viasim.NewNIC(k, cl, cl.Node(0), osA, viasim.DefaultConfig())
	nb := viasim.NewNIC(k, cl, cl.Node(1), osB, viasim.DefaultConfig())
	var src *viasim.VI
	got := 0
	nb.Listen(func(v *viasim.VI) {
		v.Handler = viasim.Handler{OnMessage: func(_ *viasim.VI, d *viasim.Delivered) {
			got++
			d.Release()
		}}
	})
	na.Dial(1, func(v *viasim.VI, err error) { src = v })
	k.Run(k.Now() + time.Second)
	if src == nil {
		b.Fatal("no VI")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(comm.SendParams{Msg: comm.Message{Kind: 1, Size: 8192}}, true); err != nil {
			b.Fatal(err)
		}
		k.Run(k.Now() + 10*time.Millisecond)
	}
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
	b.ReportMetric(float64(k.Steps())/float64(b.N), "events/msg")
}

// BenchmarkDeploymentSetup measures what every Quick-scale run pays
// before its first request: building a TCP-PRESS-HB deployment, starting
// its servers, warming caches and directories, and building the request
// trace.
func BenchmarkDeploymentSetup(b *testing.B) {
	cfg := benchOpt.Config(press.TCPPressHB)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.New(1)
		d := press.NewDeployment(k, cfg)
		d.Start()
		d.WarmStart()
		setupTrace = workload.NewTrace(workload.TraceConfig{
			Files:    cfg.WorkingSetFiles,
			FileSize: int(cfg.FileSize),
			ZipfS:    1.2,
		}, k.Rand())
	}
}

// setupTrace keeps BenchmarkDeploymentSetup's last trace reachable, so
// the compiler cannot drop the call that builds it.
var setupTrace *workload.Trace
