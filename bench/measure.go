package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"vivo/internal/trace"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the result line a run prints last.
type Report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// OpTiming is one operation's cost and the check of each of its outputs,
// as the ledger records them.
type OpTiming struct {
	Kind      string            `json:"kind"`
	WallS     float64           `json:"wall_s"`
	CPUS      float64           `json:"cpu_s"`
	AllocsM   float64           `json:"allocs_m"`
	AllocGB   float64           `json:"alloc_gb"`
	PeakRSSMB float64           `json:"peak_rss_mb"`
	Checks    map[string]string `json:"checks"`
}

// Detail is a run's full record: the report plus the metrics outside
// BENCHMARK.json and every operation's timing.
type Detail struct {
	Report
	Extra map[string]Metric `json:"extra,omitempty"`
	Ops   []OpTiming        `json:"ops"`
}

// Config is one benchmark run: one workload, one seed, one mode.
type Config struct {
	Workload Workload
	Seed     int64
	// Seconds is the measuring budget. A run makes one whole pass over
	// the workload's operations and repeats the pass while the next is
	// predicted to finish inside the budget.
	Seconds float64
	// Layers selects the per-layer pass instead of the end-to-end one.
	Layers   bool
	Geometry Geometry
	// Work holds the CPU profile of the per-layer pass.
	Work string
	// Out receives one line per operation and per metric, then the
	// report as the last line.
	Out io.Writer
}

// Run executes one benchmark run.
func Run(cfg Config) (Detail, error) {
	w := cfg.Workload
	pins, err := loadPins(cfg.Geometry, cfg.Seed)
	if err != nil {
		return Detail{}, err
	}
	p := &pass{cfg: cfg, pins: pins, digests: map[string]string{}}
	m := map[string]float64{}
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	if !cfg.Layers {
		m["setup_s"] = medianSetup(w, cfg.Seed, cfg.Geometry.SetupBatches, cfg.Geometry.SetupBatch)
		ops := p.phase(budget)
		m["wall_s"] = ops.sum(func(s sample) float64 { return s.wall.Seconds() })
		m["cpu_s"] = ops.sum(func(s sample) float64 { return s.cpu.Seconds() })
		m["allocs_m"] = ops.sum(func(s sample) float64 { return float64(s.mallocs) / 1e6 })
		m["alloc_gb"] = ops.sum(func(s sample) float64 { return float64(s.bytes) / 1e9 })
		m["peak_rss_mb"] = ops.max(func(s sample) float64 { return s.rssMB })
	} else if err := p.layers(budget, m); err != nil {
		return Detail{}, err
	}

	names := endToEnd
	if cfg.Layers {
		names = perLayer
	}
	d := Detail{
		Report: Report{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]Metric{}},
		Extra:  map[string]Metric{},
		Ops:    p.ops,
	}
	d.Correct = d.Failed == 0
	for _, md := range names {
		v, ok := m[md.Name]
		if !ok {
			return Detail{}, fmt.Errorf("bench: %s measured no %s", w.Name, md.Name)
		}
		d.Metrics[md.Name] = Metric{Value: v, Unit: md.Unit}
	}
	d.Extra["fail_frac"] = Metric{Value: float64(d.Failed) / float64(d.Attempted), Unit: "ratio"}
	if w.Name == "saturation" {
		d.Extra["paper_err_pct"] = Metric{Value: 100 * p.paperErr, Unit: "%"}
	}
	for _, md := range names {
		fmt.Fprintf(cfg.Out, "%s %s %v %s\n", w.Name, md.Name, d.Metrics[md.Name].Value, md.Unit)
	}
	for _, name := range sortedKeys(d.Extra) {
		fmt.Fprintf(cfg.Out, "%s %s %v %s\n", w.Name, name, d.Extra[name].Value, d.Extra[name].Unit)
	}
	line, err := json.Marshal(d.Report)
	if err != nil {
		return Detail{}, err
	}
	fmt.Fprintf(cfg.Out, "%s\n", line)
	return d, nil
}

// sample is one operation's host cost.
type sample struct {
	wall, cpu              time.Duration
	mallocs, bytes, cycles uint64
	rssMB                  float64
}

// samples holds a phase's costs per operation kind.
type samples map[string][]sample

// medians returns each kind's median of f, so that an operation a noisy
// neighbour slowed does not move the result.
func (ss samples) medians(f func(sample) float64) []float64 {
	var out []float64
	for _, s := range ss {
		vals := make([]float64, len(s))
		for i := range s {
			vals[i] = f(s[i])
		}
		out = append(out, median(vals))
	}
	return out
}

// sum is the cost of one pass.
func (ss samples) sum(f func(sample) float64) float64 {
	total := 0.0
	for _, v := range ss.medians(f) {
		total += v
	}
	return total
}

// max is the largest per-kind median: the peak of one pass.
func (ss samples) max(f func(sample) float64) float64 {
	peak := 0.0
	for _, v := range ss.medians(f) {
		peak = math.Max(peak, v)
	}
	return peak
}

// pass carries the operation accounting shared by a run's phases.
type pass struct {
	cfg       Config
	pins      map[string]string
	digests   map[string]string // first digest seen per output
	attempted int
	failed    int
	paperErr  float64
	ops       []OpTiming
}

// phase runs one whole pass over the workload's operations, then repeats
// the pass while the next is predicted to finish inside budget.
func (p *pass) phase(budget time.Duration) samples {
	ss := samples{}
	start := time.Now()
	for {
		t0 := time.Now()
		for _, kind := range p.cfg.Workload.Kinds {
			ss[kind] = append(ss[kind], p.op(kind))
		}
		if time.Since(start)+time.Since(t0) > budget {
			return ss
		}
	}
}

// op runs one operation, checks its outputs and records its cost. Each
// operation starts from an empty heap, with its memory returned to the
// kernel and the resident-set high-water mark reset, as if it ran in a
// fresh process; otherwise the collector's pacing and the process's
// peak would depend on the operations before it.
func (p *pass) op(kind string) sample {
	w := p.cfg.Workload
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	outs, err := safeRun(func() ([]output, error) { return w.run(p.cfg.Geometry, p.cfg.Seed, kind) })
	s := sample{wall: time.Since(t0), cpu: cpuTime() - c0, rssMB: peakRSSMB()}
	runtime.ReadMemStats(&m1)
	s.mallocs, s.bytes, s.cycles = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, uint64(m1.NumGC-m0.NumGC)

	t := OpTiming{
		Kind: kind, WallS: s.wall.Seconds(), CPUS: s.cpu.Seconds(),
		AllocsM: float64(s.mallocs) / 1e6, AllocGB: float64(s.bytes) / 1e9,
		PeakRSSMB: s.rssMB, Checks: p.checkAll(kind, outs, err),
	}
	p.ops = append(p.ops, t)
	fmt.Fprintf(p.cfg.Out, "op %s %s wall_s=%.3f cpu_s=%.3f allocs_m=%.3f alloc_gb=%.4f peak_rss_mb=%.1f checks=%s\n",
		w.Name, kind, t.WallS, t.CPUS, t.AllocsM, t.AllocGB, t.PeakRSSMB, summarize(t.Checks))
	return s
}

// traced runs the workload's traced output into sink, checks it like any
// other output (against the pin and against the output of the same name
// earlier in the run) and returns the CPU time it took.
func (p *pass) traced(sink trace.Sink) time.Duration {
	w := p.cfg.Workload
	c0 := cpuTime()
	out, err := safeRun(func() ([]output, error) {
		o, err := w.traced(p.cfg.Geometry, p.cfg.Seed, sink)
		return []output{o}, err
	})
	cpu := cpuTime() - c0
	checks := p.checkAll("traced", out, err)
	fmt.Fprintf(p.cfg.Out, "op %s traced sink=%v cpu_s=%.3f checks=%s\n", w.Name, sink != nil, cpu.Seconds(), summarize(checks))
	return cpu
}

// checkAll checks each output of an operation and counts it as attempted
// and, unless it reads "ok" or "unpinned", as failed. An operation that
// returned an error or panicked counts as one failed output.
func (p *pass) checkAll(kind string, outs []output, err error) map[string]string {
	checks := map[string]string{}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s %s: %v\n", p.cfg.Workload.Name, kind, err)
		checks[kind] = "error"
		p.attempted++
		p.failed++
		return checks
	}
	for _, o := range outs {
		c := p.check(o)
		checks[o.Name] = c
		p.attempted++
		if c != "ok" && c != "unpinned" {
			p.failed++
		}
		p.paperErr = math.Max(p.paperErr, o.PaperErr)
	}
	return checks
}

// check classifies an output: "ok" (matches the pinned digest),
// "unpinned" (no pin for this seed and geometry), or a failure. Every
// repeat of an output within the run must reproduce its first digest.
func (p *pass) check(o output) string {
	if o.Violated {
		return "violated"
	}
	if o.PaperErr > p.cfg.Geometry.PaperTolerance {
		return "paper-error"
	}
	if first, ok := p.digests[o.Name]; ok && first != o.Digest {
		return "nondeterministic"
	}
	p.digests[o.Name] = o.Digest
	pin, ok := p.pins[p.cfg.Workload.Name+"/"+o.Name]
	switch {
	case !ok:
		return "unpinned"
	case pin != o.Digest:
		return "mismatch"
	}
	return "ok"
}

// summarize counts an operation's checks by result, e.g. "ok:5".
func summarize(checks map[string]string) string {
	n := map[string]int{}
	for _, c := range checks {
		n[c]++
	}
	var parts []string
	for _, c := range sortedKeys(n) {
		parts = append(parts, fmt.Sprintf("%s:%d", c, n[c]))
	}
	return strings.Join(parts, ",")
}

// safeRun turns a panic inside the simulation into an error, so that one
// broken operation is counted as failed instead of ending the run.
func safeRun(fn func() ([]output, error)) (outs []output, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// medianSetup times batches set-ups of the workload's first
// configuration, each batch n set-ups long, and returns the median over
// batches of the mean set-up time. One set-up takes a few milliseconds,
// too short to time alone against the collector and the scheduler, and a
// neighbour on a shared machine can slow everything for half a second at
// a time, so the batches are short and span about two seconds.
func medianSetup(w Workload, seed int64, batches, n int) float64 {
	w.setup(seed) // warm the heap and the caches
	vals := make([]float64, batches)
	for i := range vals {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			w.setup(seed)
		}
		vals[i] = time.Since(t0).Seconds() / float64(n)
	}
	return median(vals)
}

// layers is the per-layer pass: a profiled pass over the workload, its
// traced output without and with a counting sink, the harness probes and
// the micro-benchmarks.
func (p *pass) layers(budget time.Duration, m map[string]float64) error {
	f, err := os.CreateTemp(p.cfg.Work, "cpu-*.pprof")
	if err != nil {
		return fmt.Errorf("bench: profile: %w", err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return fmt.Errorf("bench: profile: %w", err)
	}
	profiled := p.phase(budget)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: profile: %w", err)
	}
	shares, err := profileShares(f.Name())
	if err != nil {
		return err
	}
	for mod, v := range shares {
		m["cpu_share."+mod] = v
	}
	m["runtime.gc_cycles"] = profiled.sum(func(s sample) float64 { return float64(s.cycles) })

	plain := p.traced(nil)
	var counts categoryCounter
	traced := p.traced(&counts)
	m["bench.trace_overhead"] = traced.Seconds()/plain.Seconds() - 1
	m["trace.events.substrate"] = float64(counts[trace.Substrate])
	m["trace.events.request"] = float64(counts[trace.Request])
	m["trace.events.press"] = float64(counts[trace.Press])
	m["trace.events.fault"] = float64(counts[trace.Fault])

	if err := probeLayers(p.cfg.Geometry, p.cfg.Seed, m); err != nil {
		return err
	}
	return microLayers(p.cfg.Geometry, m)
}

// categoryCounter is a trace sink counting events per emitting layer.
type categoryCounter [8]int64

// Record implements trace.Sink.
func (c *categoryCounter) Record(e trace.Event) {
	if int(e.Cat) < len(c) {
		c[e.Cat]++
	}
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS lowers the kernel's resident-set high-water mark, which
// getrusage reports as Maxrss, to the current resident set (Linux 4.0+).
// Where that is unsupported Maxrss stays the process's peak, an upper
// bound of the operation's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
