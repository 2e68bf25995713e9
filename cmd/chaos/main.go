// Command chaos runs multi-fault campaigns against a PRESS version and
// judges every run with the invariant oracles (request conservation,
// liveness, post-heal recovery, membership convergence, trace
// well-formedness, and the trace-ordering invariants no-send-after-evict
// and no-admit-on-crashed). A violated run is shrunk by delta debugging
// to a minimal failing schedule and written as a JSON repro artifact
// under -out; `chaos -replay <artifact>` re-runs it deterministically
// and re-judges it.
//
// A campaign runs -runs schedules through one search loop
// (chaos.RunGuided). Each round plans a batch of schedules against the
// corpus of schedules that lit new coverage-signature bits, then runs
// them; the corpus is written to -corpus.
//
//   - the default is random search: one round of -runs schedules
//     against the empty corpus, so every schedule is an independent
//     random draw;
//   - -coverage plans rounds of -batch schedules, so later rounds
//     mostly mutate corpus members (add/remove/shift/stretch/crossover);
//   - -soak instead chains -cycles schedules back-to-back on one
//     surviving kernel and judges the continuously checkable invariants
//     at every cycle boundary.
//
// Only the first run violating each distinct set of oracles is shrunk
// and written as repro_run<NN>.json.
//
// -break-oracle <fault> arms an intentionally broken fixture oracle that
// flags any injection of the named fault as a violation; -break-pair
// <a>+<b> arms the two-fault conjunction variant (the seeded violation
// the guided search finds faster than random). They exist so CI can
// prove, on every run, that the violation → shrink → repro → replay
// pipeline works end to end.
//
// Usage:
//
//	chaos [-version TCP-PRESS] [-seed 1] [-runs 8] [-budget 4] [-parallel N]
//	      [-full] [-load 0.5] [-stabilize 30s] [-window 60s] [-min-dur 5s]
//	      [-max-dur 30s] [-settle 45s] [-out DIR] [-trace DIR]
//	      [-corpus DIR] [-break-oracle FAULT] [-break-pair A+B]
//	chaos -coverage [-batch 8] [...campaign flags]
//	chaos -soak [-cycles 4] [-trace out.trace.json] [...campaign flags]
//	chaos -replay repro.json [-trace out.trace.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"vivo/internal/chaos"
	"vivo/internal/cli"
	"vivo/internal/press"
	"vivo/internal/trace"
)

func main() {
	cf := cli.NewChaosFlags()
	flag.Parse()

	if *cf.Replay != "" {
		replayArtifact(*cf.Replay, *cf.Trace)
		return
	}

	version := cli.MustVersion(*cf.Version)
	p := chaos.DefaultParams()
	p.FullScale = *cf.Full
	if *cf.Load > 0 {
		p.LoadFraction = *cf.Load
	}
	if *cf.Budget > 0 {
		p.Budget = *cf.Budget
	}
	if *cf.Stabilize > 0 {
		p.Stabilize = *cf.Stabilize
	}
	if *cf.Window > 0 {
		p.Window = *cf.Window
	}
	if *cf.MinDur > 0 {
		p.MinDur = *cf.MinDur
	}
	if *cf.MaxDur > 0 {
		p.MaxDur = *cf.MaxDur
		if p.MinDur > p.MaxDur {
			p.MinDur = p.MaxDur
		}
	}
	if *cf.Settle > 0 {
		p.Settle = *cf.Settle
	}

	oracles := chaos.DefaultOracles()
	if *cf.BreakOracle != "" {
		oracles = append(oracles, chaos.ForbidFault{T: cli.MustFault(*cf.BreakOracle)})
	}
	if *cf.BreakPair != "" {
		a, b, ok := strings.Cut(*cf.BreakPair, "+")
		if !ok {
			log.Fatalf("-break-pair wants two fault names joined by +, got %q", *cf.BreakPair)
		}
		oracles = append(oracles, chaos.ForbidPair{A: cli.MustFault(a), B: cli.MustFault(b)})
	}

	if *cf.Soak {
		runSoak(version, p, cf)
		return
	}
	// Without -coverage the batch covers the whole budget: one planning
	// round against an empty corpus, i.e. pure random search.
	batch := *cf.Runs
	if *cf.Coverage {
		batch = *cf.Batch
	}
	rep, err := chaos.RunGuided(chaos.GuidedOptions{
		Version:   version,
		Seed:      *cf.Seed,
		Budget:    *cf.Runs,
		Batch:     batch,
		Parallel:  *cf.Parallel,
		CorpusDir: *cf.Corpus,
		TraceDir:  *cf.Trace,
		Params:    p,
	}, oracles)
	if err != nil {
		log.Fatalf("chaos campaign: %v", err)
	}
	fmt.Print(rep.String())

	dir := reproDir(*cf.Out)
	for _, gr := range rep.Runs {
		if gr.Repro == nil {
			continue
		}
		writeRepro(dir, fmt.Sprintf("repro_run%02d.json", gr.Index), *gr.Repro)
	}
	if rep.Violated() > 0 {
		os.Exit(1)
	}
}

// runSoak executes the long-horizon soak mode.
func runSoak(version press.Version, p chaos.Params, cf *cli.ChaosFlags) {
	var sink trace.Sink
	var finish func()
	if *cf.Trace != "" {
		fs, fin := cli.MustTraceFile(*cf.Trace)
		sink, finish = fs, fin
	}
	rep, err := chaos.RunSoak(chaos.SoakOptions{
		Version: version,
		Seed:    *cf.Seed,
		Cycles:  *cf.Cycles,
		Params:  p,
	}, sink)
	if err != nil {
		log.Fatalf("chaos soak: %v", err)
	}
	if finish != nil {
		finish()
	}
	fmt.Print(rep.String())
	if rep.Violated() > 0 {
		os.Exit(1)
	}
}

// reproDir resolves and creates the repro output directory.
func reproDir(out string) string {
	if out == "" {
		return "."
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		log.Fatalf("create repro directory: %v", err)
	}
	return out
}

func writeRepro(dir, name string, r chaos.Repro) {
	path := filepath.Join(dir, name)
	if err := chaos.WriteRepro(path, r); err != nil {
		log.Fatalf("write repro artifact: %v", err)
	}
	fmt.Printf("repro artifact: %s (replay with: chaos -replay %s)\n", path, path)
}

// replayArtifact re-runs a repro deterministically and re-judges it.
func replayArtifact(path, tracePath string) {
	r, err := chaos.ReadRepro(path)
	if err != nil {
		log.Fatalf("read repro artifact: %v", err)
	}

	var sink trace.Sink
	var finish func()
	if tracePath != "" {
		fs, fin := cli.MustTraceFile(tracePath)
		sink, finish = fs, fin
	}

	verdicts, reproduced, _, err := chaos.Replay(r, sink)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	if finish != nil {
		finish()
	}

	fmt.Printf("replaying %s: %s seed=%d schedule: %s\n", path, r.Version, r.Seed, r.Schedule)
	fmt.Print(chaos.RenderVerdicts(verdicts))
	if reproduced {
		fmt.Printf("reproduced: all recorded violations (%v) failed again\n", r.Violations)
		os.Exit(1)
	}
	fmt.Printf("NOT reproduced: recorded violations %v did not all fail\n", r.Violations)
	os.Exit(2)
}
