// Package cli holds the flag definitions and helpers shared by the
// command-line frontends (cmd/presssim, cmd/faultinject, ...), so every
// command documents the same flag the same way. In particular, any
// command with a -version flag lists the registered PRESS version names
// in its -h output — including extensions registered after the built-ins
// — instead of each main.go hand-maintaining (or forgetting) the list.
package cli

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"vivo/internal/experiments"
	"vivo/internal/faults"
	"vivo/internal/press"
	"vivo/internal/trace"
)

// VersionFlag registers the standard -version flag. The help text names
// every registered version, queried from the registry at startup.
func VersionFlag(def string) *string {
	return flag.String("version", def,
		"PRESS version ("+strings.Join(press.VersionNames(), ", ")+")")
}

// MustVersion resolves a version name or exits with the valid list.
func MustVersion(name string) press.Version {
	v, ok := press.VersionByName(name)
	if !ok {
		log.Fatalf("unknown version %q (valid: %s)",
			name, strings.Join(press.VersionNames(), ", "))
	}
	return v
}

// FaultFlag registers the standard -fault flag, listing the Table-2
// fault names plus the "all" pseudo-fault.
func FaultFlag(def string) *string {
	return flag.String("fault", def,
		"fault to inject ("+strings.Join(FaultNames(), ", ")+"), or \"all\" for the whole column")
}

// FaultNames returns the injectable fault names in Table-2 order.
func FaultNames() []string {
	names := make([]string, len(faults.AllTypes))
	for i, ft := range faults.AllTypes {
		names[i] = ft.String()
	}
	return names
}

// MustFault resolves a fault name or exits with the valid list.
func MustFault(name string) faults.Type {
	if ft, ok := faults.TypeByName(name); ok {
		return ft
	}
	log.Fatalf("unknown fault %q; available: %s (or \"all\")",
		name, strings.Join(FaultNames(), ", "))
	panic("unreachable")
}

// SeedFlag registers the standard -seed flag.
func SeedFlag() *int64 {
	return flag.Int64("seed", 1, "deterministic seed (same seed, same results)")
}

// ParallelFlag registers the standard -parallel flag.
func ParallelFlag() *int {
	return flag.Int("parallel", 0,
		"concurrent simulation runs (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
}

// LatencyFlag registers the standard -latency flag.
func LatencyFlag() *bool {
	return flag.Bool("latency", false,
		"record end-to-end request latency (percentile timeline, histogram, per-stage profile); traced runs also gain per-request duration spans")
}

// SLOFlag registers the standard -slo flag.
func SLOFlag() *time.Duration {
	return flag.Duration("slo", 0,
		"latency SLO target; measures the per-stage fraction of requests answered within it and the folded SLO availability (0 = off; implies latency recording)")
}

// HopsFlag registers the standard -hops flag.
func HopsFlag() *bool {
	return flag.Bool("hops", false,
		"decompose request latency per hop (accept-queue, forward, serve) segmented by model stage (implies latency recording)")
}

// ExperimentFlags bundles the flags every experiment-running command
// (cmd/faultinject, cmd/pressbench) shares, so the experiment protocol is
// documented once — in these help strings, whose defaults are read from
// experiments.Quick()/Full() rather than hand-copied (EXPERIMENTS.md
// "Scale and substitutions" describes the same two scales).
type ExperimentFlags struct {
	Full      *bool
	Seed      *int64
	Parallel  *int
	Stabilize *time.Duration
	FaultDur  *time.Duration
	Observe   *time.Duration
	Load      *float64
	Latency   *bool
	SLO       *time.Duration
	Hops      *bool
}

// NewExperimentFlags registers the shared experiment flags. Call before
// flag.Parse.
func NewExperimentFlags() *ExperimentFlags {
	q, f := experiments.Quick(), experiments.Full()
	return &ExperimentFlags{
		Full:     flag.Bool("full", false, "paper-scale deployment and loads (slower; see EXPERIMENTS.md)"),
		Seed:     SeedFlag(),
		Parallel: ParallelFlag(),
		Stabilize: flag.Duration("stabilize", 0,
			windowHelp("pre-injection steady period", q.Stabilize, f.Stabilize)),
		FaultDur: flag.Duration("fault-duration", 0,
			windowHelp("component downtime for transient faults", q.FaultDuration, f.FaultDuration)),
		Observe: flag.Duration("observe", 0,
			windowHelp("post-repair observation window", q.Observe, f.Observe)),
		Load: flag.Float64("load", 0, fmt.Sprintf(
			"offered load as a fraction of Table-1 capacity (0 = scale default: quick %.2f, full %.2f)",
			q.LoadFraction, f.LoadFraction)),
		Latency: LatencyFlag(),
		SLO:     SLOFlag(),
		Hops:    HopsFlag(),
	}
}

func windowHelp(what string, q, f time.Duration) string {
	return fmt.Sprintf("%s (0 = scale default: quick %s, full %s)", what, q, f)
}

// Options assembles the experiment options the parsed flags select:
// the scale's defaults with any explicitly-set window overriding.
func (ef *ExperimentFlags) Options() experiments.Options {
	opt := experiments.Quick()
	if *ef.Full {
		opt = experiments.Full()
	}
	opt.Seed = *ef.Seed
	opt.Parallel = *ef.Parallel
	opt.Latency = *ef.Latency
	opt.SLO = *ef.SLO
	opt.Hops = *ef.Hops
	if *ef.Stabilize > 0 {
		opt.Stabilize = *ef.Stabilize
	}
	if *ef.FaultDur > 0 {
		opt.FaultDuration = *ef.FaultDur
	}
	if *ef.Observe > 0 {
		opt.Observe = *ef.Observe
	}
	if *ef.Load > 0 {
		opt.LoadFraction = *ef.Load
	}
	return opt
}

// ChaosFlags bundles every cmd/chaos flag, registered here so the
// flag-help drift test can diff the command's -h output against one
// shared registry (the same arrangement as ExperimentFlags).
type ChaosFlags struct {
	Version     *string
	Seed        *int64
	Runs        *int
	Budget      *int
	Parallel    *int
	Full        *bool
	Load        *float64
	Stabilize   *time.Duration
	Window      *time.Duration
	MinDur      *time.Duration
	MaxDur      *time.Duration
	Settle      *time.Duration
	Out         *string
	Trace       *string
	BreakOracle *string
	BreakPair   *string
	Replay      *string
	Coverage    *bool
	Batch       *int
	Corpus      *string
	Soak        *bool
	Cycles      *int
}

// NewChaosFlags registers the chaos command's flags. Call before
// flag.Parse.
func NewChaosFlags() *ChaosFlags {
	return &ChaosFlags{
		Version:   VersionFlag("TCP-PRESS"),
		Seed:      SeedFlag(),
		Runs:      flag.Int("runs", 8, "run budget: number of fault schedules to run"),
		Budget:    flag.Int("budget", 0, "maximum faults per schedule (0 = default)"),
		Parallel:  ParallelFlag(),
		Full:      flag.Bool("full", false, "paper-scale deployment (slower)"),
		Load:      flag.Float64("load", 0, "offered load as a fraction of Table-1 capacity (0 = default)"),
		Stabilize: flag.Duration("stabilize", 0, "pre-injection steady period (0 = default)"),
		Window:    flag.Duration("window", 0, "injection window length (0 = default)"),
		MinDur:    flag.Duration("min-dur", 0, "shortest fault duration (0 = default)"),
		MaxDur:    flag.Duration("max-dur", 0, "longest fault duration (0 = default)"),
		Settle:    flag.Duration("settle", 0, "post-heal stabilization before oracles judge (0 = default)"),
		Out:       flag.String("out", "", "directory for repro artifacts of violated runs (default: current directory)"),
		Trace:     flag.String("trace", "", "trace destination: a directory for campaigns (one file per run), a file with -replay or -soak"),
		BreakOracle: flag.String("break-oracle", "",
			"arm the broken fixture oracle that forbids this fault (proves the violation pipeline)"),
		BreakPair: flag.String("break-pair", "",
			"arm the fixture oracle that forbids injecting both faults of this pair, e.g. kernel-memory+link-down (the guided search's seeded violation)"),
		Replay:   flag.String("replay", "", "replay a repro artifact instead of running a campaign"),
		Coverage: flag.Bool("coverage", false, "coverage-guided schedule search in rounds of -batch: mutate a corpus of interesting schedules (off: one round of -runs random draws)"),
		Batch:    flag.Int("batch", 0, "guided-search generation size: schedules planned per round against the frozen corpus (0 = default)"),
		Corpus:   flag.String("corpus", "", "directory for the campaign's final corpus (one JSON per entry + corpus_summary.txt)"),
		Soak:     flag.Bool("soak", false, "long-horizon soak: chain schedules back-to-back on one surviving kernel, judging invariants at every cycle boundary"),
		Cycles:   flag.Int("cycles", 4, "soak fault cycles after the fault-free baseline cycle"),
	}
}

// TraceFlag registers the standard -trace flag. what describes the
// destination (e.g. "this file" or "this file (a directory with -fault all)").
func TraceFlag(what string) *string {
	return flag.String("trace", "",
		"write a deterministic Perfetto-loadable event trace of the run to "+what)
}

// MustTraceFile opens a Perfetto JSON trace file sink at path (which
// must be non-empty) and returns it with a finish function that flushes
// and closes it after the run. Errors are fatal: a command asked to
// trace must trace. Callers wire the sink into an obs.Harness — guard
// the empty-path case before calling, and never assign a nil *FileSink
// into a Sink interface field (a typed nil would defeat the harness's
// nil check).
func MustTraceFile(path string) (*trace.FileSink, func()) {
	fs, err := trace.CreateFile(path)
	if err != nil {
		log.Fatalf("%v", err)
	}
	return fs, func() {
		if err := fs.Close(); err != nil {
			log.Fatalf("write trace file: %v", err)
		}
	}
}
