// Command presssim runs one PRESS deployment under steady client load and
// reports throughput and availability — the quickest way to see the
// simulated cluster working.
//
// Usage:
//
//	presssim [-version VIA-PRESS-5] [-rate 6000] [-duration 60s] [-seed 1]
//	         [-log access.log] [-latency] [-slo 1s] [-trace run.trace.json] [-v]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"vivo/internal/cli"
	"vivo/internal/obs"
	"vivo/internal/press"
	"vivo/internal/workload"
)

func main() {
	versionName := cli.VersionFlag("VIA-PRESS-5")
	rate := flag.Float64("rate", 6000, "offered client load, requests/second")
	duration := flag.Duration("duration", 60*time.Second, "simulated run length")
	seed := cli.SeedFlag()
	verbose := flag.Bool("v", false, "print per-second timeline")
	logPath := flag.String("log", "", "replay a Common Log Format access log instead of the synthetic Zipf trace")
	lat := cli.LatencyFlag()
	slo := cli.SLOFlag()
	tracePath := cli.TraceFlag("this file")
	flag.Parse()

	v := cli.MustVersion(*versionName)
	cfg := press.DefaultConfig(v)

	// nil selects the harness's deterministic Zipf trace over cfg's
	// working set.
	var sampler workload.Sampler
	if *logPath != "" {
		f, err := os.Open(*logPath)
		if err != nil {
			log.Fatalf("open log: %v", err)
		}
		lt, err := workload.ParseCommonLog(f, int(cfg.FileSize))
		f.Close()
		if err != nil {
			log.Fatalf("parse log: %v", err)
		}
		cfg.WorkingSetFiles = lt.Config().Files
		fmt.Printf("replaying %d requests over %d distinct documents from %s\n",
			lt.Len(), lt.Config().Files, *logPath)
		sampler = lt
	}

	h := obs.Harness{
		Seed:    *seed,
		Config:  cfg,
		Rate:    *rate,
		Sampler: sampler,
		LoadFor: *duration,
	}
	finishTrace := func() {}
	if *tracePath != "" {
		fs, finish := cli.MustTraceFile(*tracePath)
		h.Sink = fs
		finishTrace = finish
	}
	var probes []obs.Probe
	if *lat || *slo > 0 {
		probes = append(probes, obs.Latency{})
	}

	start := time.Now()
	run, err := h.Run(probes...)
	if err != nil {
		log.Fatalf("%v", err)
	}
	wall := time.Since(start)
	finishTrace()

	served, failed := run.Rec.Totals()
	fmt.Printf("%s: %v simulated in %v wall (%d events)\n", v, *duration, wall.Round(time.Millisecond), run.K.Steps())
	fmt.Printf("offered %.0f req/s, served %d, failed %d, availability %.4f\n",
		*rate, served, failed, run.Rec.Availability())
	fmt.Printf("mean throughput %.0f req/s (paper Table 1 capacity: %.0f)\n",
		run.Rec.Timeline().MeanThroughput(10*time.Second, *duration), press.Table1Throughput(v))
	if *verbose {
		fmt.Fprint(os.Stdout, run.Rec.Timeline().String())
	}
	if lr := run.Rec; lr.TracksLatency() {
		fmt.Printf("latency: %s\n", lr.TotalQuantiles())
		if *verbose {
			fmt.Print(lr.LatencyTimeline().String())
		}
		fmt.Print(lr.Total().Dump())
		if *slo > 0 {
			c := lr.TotalUnder(*slo)
			at, worst := lr.WorstWindowUnder(*slo, 10)
			fmt.Printf("slo %v: frac=%.5f (under=%d served=%d failed=%d), worst 1s window %.5f at %.0fs\n",
				*slo, c.Fraction(), c.Under, c.Served, c.Failed, worst, at.Seconds())
		}
	}
}
