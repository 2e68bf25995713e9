// Command faultinject runs one phase-1 fault-injection experiment —
// version × fault — and prints the throughput timeline with injection,
// detection and recovery marks, plus the extracted 7-stage parameters.
// With -fault all it runs the version's entire Table-2 fault column,
// fanning the 11 independent simulations out across -parallel workers
// (default: GOMAXPROCS), and prints the one-line stage summary of each.
//
// -trace captures the run's deterministic event stream as a
// Perfetto-loadable JSON timeline (with -fault all, -trace names a
// directory that receives one file per fault). The experiment-protocol
// flags (-stabilize, -fault-duration, -observe, -load) shorten or
// lengthen the run; short windows keep trace files small. -latency adds
// end-to-end request latency: the per-stage quantile profile after the
// stage table (and per-request duration spans in the trace). -slo
// measures the per-stage fraction of requests answered within a latency
// target and folds it into the long-run SLO availability; -hops
// decomposes latency per hop (accept-queue, forward, serve).
//
// Usage:
//
//	faultinject [-version TCP-PRESS] [-fault link-down|all] [-full] [-seed 1]
//	            [-parallel N] [-stabilize 30s] [-fault-duration 60s] [-observe 120s]
//	            [-load 0.5] [-latency] [-slo 1s] [-hops] [-trace out.trace.json] [-csv]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vivo/internal/cli"
	"vivo/internal/core"
	"vivo/internal/experiments"
)

func main() {
	versionName := cli.VersionFlag("TCP-PRESS")
	faultName := cli.FaultFlag("link-down")
	ef := cli.NewExperimentFlags()
	tracePath := cli.TraceFlag("this file (a directory with -fault all)")
	csv := flag.Bool("csv", false, "emit the timeline as CSV instead of text")
	flag.Parse()

	version := cli.MustVersion(*versionName)
	opt := ef.Options()

	if *faultName == "all" {
		if *tracePath != "" {
			if err := os.MkdirAll(*tracePath, 0o755); err != nil {
				log.Fatalf("create trace directory: %v", err)
			}
			opt.TraceDir = *tracePath
		}
		for _, fr := range experiments.RunFaultColumn(version, opt) {
			fmt.Println(fr.String())
			if fr.Latency != nil {
				fmt.Printf("  latency: %s\n", fr.Latency.TotalQuantiles())
			}
			if fr.SLO != nil {
				fmt.Printf("  slo %v: fault-win frac=%.5f, folded A_slo=%.7f\n",
					fr.SLO.Target, fr.SLO.Fault.Fraction(), experiments.SLOFold(fr, opt))
			}
		}
		if opt.TraceDir != "" {
			fmt.Printf("traces written to %s/\n", opt.TraceDir)
		}
		return
	}

	fault := cli.MustFault(*faultName)

	var fr experiments.FaultRun
	if *tracePath != "" {
		fs, finish := cli.MustTraceFile(*tracePath)
		fr = experiments.RunFaultTrace(version, fault, opt, fs)
		finish()
	} else {
		fr = experiments.RunFault(version, fault, opt)
	}
	if *csv {
		fmt.Print(fr.Timeline.CSV())
		return
	}
	fmt.Print(experiments.RenderTimeline(fr))
	m := fr.Measured
	fmt.Printf("\nExtracted stages (Tn=%.0f req/s):\n", m.Tn)
	fmt.Printf("  A: %6.1fs @ %6.0f req/s   (fault -> detection)\n", m.DA.Seconds(), m.TA)
	fmt.Printf("  B: %6.1fs @ %6.0f req/s   (reconfiguration transient)\n", m.DB.Seconds(), m.TB)
	fmt.Printf("  C:    MTTR @ %6.0f req/s   (stable degraded)\n", m.TC)
	fmt.Printf("  D: %6.1fs @ %6.0f req/s   (recovery transient)\n", m.DD.Seconds(), m.TD)
	fmt.Printf("  E:         @ %6.0f req/s   (post-recovery)\n", m.TE)
	fmt.Printf("  splintered at end: %v (operator reset required)\n", m.Splintered)
	if fr.Latency != nil {
		fmt.Printf("\nPer-request latency (end-to-end):\n")
		fmt.Printf("  run:       %s\n", fr.Latency.TotalQuantiles())
		fmt.Print(fr.StageLat.String())
		at, worst := fr.Latency.LatencyTimeline().WorstP99(10)
		fmt.Printf("  worst per-second p99: %.1fms at %.0fs\n",
			float64(worst.Microseconds())/1e3, at.Seconds())
	}
	if fr.SLO != nil {
		fmt.Printf("\nSLO performability (target %v):\n", fr.SLO.Target)
		fmt.Print(fr.SLO.String())
		fmt.Printf("  folded A_slo: %.7f\n", experiments.SLOFold(fr, opt))
	}
	if fr.Hops != nil {
		fmt.Printf("\nPer-hop latency (accept-queue / forward / serve):\n")
		fmt.Print(core.RenderHopProfiles(fr.Hops))
	}
	if *tracePath != "" {
		fmt.Printf("trace written to %s\n", *tracePath)
	}
}
