// Command vivobench is the repository benchmark. Run it through
// bench/run.sh, which builds it from source first.
//
// With -workload it makes one run of one workload in this process and
// prints, last, one JSON result line:
//
//	vivobench -workload fault-tcp -seed 1 -seconds 30 -trace 0
//
// -trace 0 measures the end-to-end metrics, -trace 1 the per-layer ones.
// Without -workload it runs every workload in its own child process and
// writes the ledger bench/results/BENCH_<yyyymmdd>_<sha>.json, exiting 1
// if a run failed its output check:
//
//	vivobench [-seed N] [-runs 3] [-layers]
//	vivobench -compare a.json b.json
//	vivobench -update
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"vivo/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 30, "measuring budget of one run, seconds")
		traceF   = flag.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
		detail   = flag.String("detail", "", "also write the run's full record (every operation's timing) to this JSON file")
		smoke    = flag.Bool("smoke", false, "use the tiny smoke geometry")
		work     = flag.String("work", ".bench_build", "working directory for profiles and child results")
		runs     = flag.Int("runs", 3, "end-to-end runs per workload in the ledger")
		layers   = flag.Bool("layers", false, "add one per-layer run per workload to the ledger")
		results  = flag.String("results", "bench/results", "ledger directory")
		compare  = flag.Bool("compare", false, "compare two ledgers given as arguments against the bounds in -spec")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark definition")
		update   = flag.Bool("update", false, "regenerate the pinned output digests in -testdata")
		testdata = flag.String("testdata", "bench/testdata", "pinned digest directory")
	)
	flag.Parse()
	if *traceF != 0 && *traceF != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *traceF))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fail(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two ledger files"))
		}
		s, err := bench.ReadSpec(*spec)
		if err != nil {
			fail(err)
		}
		a, err := bench.ReadLedger(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		b, err := bench.ReadLedger(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		regressed, err := bench.Compare(os.Stdout, s, a, b)
		if err != nil {
			fail(err)
		}
		if regressed {
			os.Exit(1)
		}

	case *update:
		runtime.GOMAXPROCS(1)
		if err := bench.UpdatePins(*testdata, os.Stdout); err != nil {
			fail(err)
		}

	case *workload != "":
		// The simulation is single-threaded; a second P only lets the
		// collector compete with it for the machine's other core, which
		// spreads wall time for identical work.
		runtime.GOMAXPROCS(1)
		w, ok := bench.WorkloadByName(*workload)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *workload))
		}
		g := bench.Default()
		if *smoke {
			g = bench.Smoke()
		}
		d, err := bench.Run(bench.Config{
			Workload: w, Seed: *seed, Seconds: *seconds, Layers: *traceF == 1,
			Geometry: g, Work: *work, Out: os.Stdout,
		})
		if err != nil {
			fail(err)
		}
		if *detail != "" {
			if err := d.Write(*detail); err != nil {
				fail(err)
			}
		}

	default:
		led, err := bench.RunLedger(bench.LedgerConfig{
			Seed: *seed, Seconds: *seconds, Runs: *runs, Layers: *layers,
			Smoke: *smoke, Work: *work, Out: os.Stdout,
		})
		if err != nil {
			fail(err)
		}
		if err := os.MkdirAll(*results, 0o755); err != nil {
			fail(err)
		}
		path := filepath.Join(*results, led.FileName())
		if err := led.Write(path); err != nil {
			fail(err)
		}
		fmt.Println("wrote", path)
		if n := led.FailedRuns(); n > 0 {
			fmt.Fprintf(os.Stderr, "vivobench: %d run(s) failed the output check\n", n)
			os.Exit(1)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vivobench:", err)
	os.Exit(2)
}
