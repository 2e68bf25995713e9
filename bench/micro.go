package bench

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"vivo/internal/cluster"
	"vivo/internal/comm"
	"vivo/internal/experiments"
	"vivo/internal/latency"
	"vivo/internal/metrics"
	"vivo/internal/obs"
	"vivo/internal/osmodel"
	"vivo/internal/press"
	"vivo/internal/sim"
	"vivo/internal/tcpsim"
	"vivo/internal/trace"
	"vivo/internal/viasim"
	"vivo/internal/workload"
)

// probeLayers runs a steady, fault-free harness at half load for each
// substrate and reports the simulator's cost per client request.
func probeLayers(g Geometry, seed int64, m map[string]float64) error {
	for _, p := range []struct {
		suffix string
		v      press.Version
	}{{"tcp", press.TCPPressHB}, {"via", press.VIAPress5}} {
		var cps []sim.Time
		for t := time.Second; t <= g.ProbeFor; t += time.Second {
			cps = append(cps, t)
		}
		live := 0.0
		h := obs.Harness{
			Seed:        seed,
			Config:      experiments.Quick().Config(p.v),
			Rate:        0.5 * press.Table1Throughput(p.v),
			LoadFor:     g.ProbeFor,
			Checkpoints: cps,
			OnCheckpoint: func(_ int, run *obs.Run) {
				live += float64(run.K.Pending())
			},
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := cpuTime()
		run, err := h.Run()
		cpu := cpuTime() - c0
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		issued := float64(run.Clients.Issued())
		m["sim.events_per_request."+p.suffix] = float64(run.K.Steps()) / issued
		m["sim.live_events_mean."+p.suffix] = live / float64(len(cps))
		m["press.cpu_us_per_request."+p.suffix] = float64(cpu.Microseconds()) / issued
		m["press.allocs_per_request."+p.suffix] = float64(m1.Mallocs-m0.Mallocs) / issued
		m["press.bytes_per_request."+p.suffix] = float64(m1.TotalAlloc-m0.TotalAlloc) / issued
	}
	return nil
}

// microLayers runs the per-layer micro-benchmarks.
func microLayers(g Geometry, m map[string]float64) error {
	testing.Init()
	if err := flag.Set("test.benchtime", g.BenchTime); err != nil {
		return err
	}
	bench := func(name string, fn func(*testing.B)) (testing.BenchmarkResult, error) {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			return r, fmt.Errorf("bench: micro-benchmark %s failed", name)
		}
		return r, nil
	}
	perOp := func(r testing.BenchmarkResult) (ns, allocs, bytes float64) {
		n := float64(r.N)
		return float64(r.T.Nanoseconds()) / n, float64(r.MemAllocs) / n, float64(r.MemBytes) / n
	}

	r, err := bench("sim", benchKernelChurn)
	if err != nil {
		return err
	}
	m["sim.ns_per_event"], m["sim.allocs_per_event"], m["sim.bytes_per_event"] = perOp(r)

	for _, s := range []struct {
		name string
		fn   func(*testing.B)
	}{{"tcpsim", benchTCPMessage}, {"viasim", benchVIAMessage}} {
		r, err := bench(s.name, s.fn)
		if err != nil {
			return err
		}
		m[s.name+".ns_per_msg"], m[s.name+".allocs_per_msg"], _ = perOp(r)
		m[s.name+".events_per_msg"] = r.Extra["events/msg"]
	}

	if r, err = bench("workload", benchIssue); err != nil {
		return err
	}
	m["workload.ns_per_issue"], m["workload.allocs_per_issue"], _ = perOp(r)

	for _, s := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"trace.emit_ns.disabled", func(b *testing.B) { benchEmit(b, func() trace.Sink { return nil }) }},
		{"trace.emit_ns.recorder", func(b *testing.B) { benchEmit(b, func() trace.Sink { return trace.NewRecorder() }) }},
		{"trace.emit_ns.json", func(b *testing.B) { benchEmit(b, func() trace.Sink { return trace.NewJSON(io.Discard) }) }},
		{"latency.observe_ns", benchObserve},
		{"metrics.record_ns", benchRecord},
	} {
		r, err := bench(s.name, s.fn)
		if err != nil {
			return err
		}
		m[s.name], _, _ = perOp(r)
	}
	return nil
}

// benchKernelChurn drives the kernel with the timer churn of a fault
// run's request path: each request arms a 6 s client timeout and a
// 200 ms retransmit timer, fires eleven short events about 100 us apart,
// and cancels both timers on the way. At 2500 requests/s that keeps
// about 15k cancelled timeouts queued beside a few dozen live events,
// with one scheduled event in seven cancelled. One op is one fired event.
func benchKernelChurn(b *testing.B) {
	const rate = 2500.0
	k := sim.New(1)
	nop := func() {}
	var arrive func()
	arrive = func() {
		timeout := k.After(6*time.Second, nop)
		rto := k.After(200*time.Millisecond, nop)
		step := 0
		var hop func()
		hop = func() {
			step++
			switch step {
			case 5:
				rto.Cancel()
			case 11:
				timeout.Cancel()
				return
			}
			k.After(100*time.Microsecond, hop)
		}
		k.After(100*time.Microsecond, hop)
		k.After(time.Duration(k.Rand().ExpFloat64()/rate*float64(time.Second)), arrive)
	}
	k.After(0, arrive)
	k.Run(7 * time.Second) // past one timeout: the tombstone count is steady
	b.ResetTimer()
	for end := k.Steps() + uint64(b.N); k.Steps() < end; {
		k.Step()
	}
}

// benchTCPMessage moves one 8 KiB message across the simulated TCP
// substrate per op.
func benchTCPMessage(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig())
	sa := tcpsim.NewStack(k, cl, cl.Node(0), osmodel.New(k, cl.Node(0), 1<<30), tcpsim.DefaultConfig())
	sb := tcpsim.NewStack(k, cl, cl.Node(1), osmodel.New(k, cl.Node(1), 1<<30), tcpsim.DefaultConfig())
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
	send := func() error { return src.Send(comm.SendParams{Msg: comm.Message{Kind: 1, Size: 8192}}) }
	benchMessages(b, k, send, &got)
}

// benchVIAMessage moves one 8 KiB message across the simulated VIA
// substrate per op.
func benchVIAMessage(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig())
	na := viasim.NewNIC(k, cl, cl.Node(0), osmodel.New(k, cl.Node(0), 1<<30), viasim.DefaultConfig())
	nb := viasim.NewNIC(k, cl, cl.Node(1), osmodel.New(k, cl.Node(1), 1<<30), viasim.DefaultConfig())
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
	send := func() error { return src.Send(comm.SendParams{Msg: comm.Message{Kind: 1, Size: 8192}}, true) }
	benchMessages(b, k, send, &got)
}

func benchMessages(b *testing.B, k *sim.Kernel, send func() error, got *int) {
	*got = 0
	start := k.Steps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := send(); err != nil {
			b.Fatal(err)
		}
		k.Run(k.Now() + 10*time.Millisecond)
	}
	b.StopTimer()
	if *got != b.N {
		b.Fatalf("delivered %d of %d", *got, b.N)
	}
	b.ReportMetric(float64(k.Steps()-start)/float64(b.N), "events/msg")
}

// completer is a backend that serves every request 1 ms after accepting
// it, so the clients' timeout timers are armed and cancelled as in a run.
type completer struct{ k *sim.Kernel }

func (c completer) Submit(r *workload.Request) workload.SubmitResult {
	c.k.After(time.Millisecond, r.Complete)
	return workload.Accepted
}

// benchIssue measures the client issue path per issued request.
func benchIssue(b *testing.B) {
	k := sim.New(1)
	cfg := experiments.Quick().Config(press.TCPPressHB)
	tr := workload.NewTrace(workload.TraceConfig{
		Files: cfg.WorkingSetFiles, FileSize: int(cfg.FileSize), ZipfS: 1.2,
	}, rand.New(rand.NewSource(8)))
	cl := workload.NewClients(k, workload.DefaultClients(2500, cfg.Nodes), tr,
		completer{k}, metrics.NewRecorder(k, time.Second))
	cl.Start()
	k.Run(7 * time.Second)
	b.ResetTimer()
	for end := cl.Issued() + int64(b.N); cl.Issued() < end; {
		k.Step()
	}
}

// benchEmit measures one Tracer.Emit into the sink newSink returns; a
// recorder is replaced every 64k events, so it grows as in a run without
// holding the whole benchmark in memory.
func benchEmit(b *testing.B, newSink func() trace.Sink) {
	t := trace.New(newSink())
	e := trace.Event{Cat: trace.Substrate, Name: trace.EvSend, Node: 1, Peer: 2, Arg: 8192}
	for i := 0; i < b.N; i++ {
		if i&0xffff == 0xffff {
			t = trace.New(newSink())
		}
		e.TS = time.Duration(i) * time.Microsecond
		t.Emit(e)
	}
}

// benchObserve measures one latency histogram sample.
func benchObserve(b *testing.B) {
	var h latency.Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%8192) * 37 * time.Microsecond)
	}
}

// benchRecord measures one throughput-recorder outcome.
func benchRecord(b *testing.B) {
	rec := metrics.NewRecorder(sim.New(1), time.Second)
	for i := 0; i < b.N; i++ {
		rec.Record(metrics.Outcome(i & 1))
	}
}
