// Quickstart: build a 4-node PRESS cluster on the VIA substrate, drive it
// with a synthetic web workload for a simulated minute, and print the
// throughput and availability. Two simulated runs with the same seed are
// bit-identical.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"time"

	"vivo/internal/obs"
	"vivo/internal/press"
	"vivo/internal/workload"
)

func main() {
	// A paper-testbed configuration: 4 nodes, 1 Gb/s SAN, 128 MiB file
	// cache per node, VIA with remote writes and zero-copy.
	cfg := press.DefaultConfig(press.VIAPress5)

	// One run as a value. The harness builds the simulation kernel (which
	// owns virtual time and all randomness) and the deployment (hardware,
	// OS models, the communication substrate, restart daemons and the
	// PRESS processes), warms the caches to skip the disk-bound warmup,
	// then starts the clients: Poisson arrivals over a Zipf document
	// trace with round-robin DNS and the paper's 2 s / 6 s timeouts.
	h := obs.Harness{
		Seed:   42,
		Config: cfg,
		Rate:   6500,
		Sampler: workload.NewTrace(workload.TraceConfig{
			Files:    cfg.WorkingSetFiles,
			FileSize: int(cfg.FileSize),
			ZipfS:    1.2,
		}, rand.New(rand.NewSource(7))),
		LoadFor: 60 * time.Second, // one simulated minute
	}

	wall := time.Now()
	run, err := h.Run()
	if err != nil {
		panic(err)
	}

	served, failed := run.Rec.Totals()
	fmt.Printf("simulated 60s in %v wall time (%d events)\n",
		time.Since(wall).Round(time.Millisecond), run.K.Steps())
	fmt.Printf("version:      %s\n", cfg.Version)
	fmt.Printf("served:       %d requests (%.0f req/s)\n", served, float64(served)/60)
	fmt.Printf("failed:       %d requests\n", failed)
	fmt.Printf("availability: %.4f\n", run.Rec.Availability())
	fmt.Printf("paper Table 1 capacity for this version: %.0f req/s\n",
		press.Table1Throughput(cfg.Version))
}
