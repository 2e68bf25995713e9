package chaos

import (
	"fmt"
	"path/filepath"
	"strings"

	"vivo/internal/press"
	"vivo/internal/trace"
)

// runFunc abstracts one simulated run so the guided-vs-random comparison
// tests can substitute a synthetic runner. name labels the run's trace
// file; the empty name means an untraced auxiliary run (shrink
// candidates, replays inside the shrinker).
type runFunc func(v press.Version, p Params, seed int64, sched Schedule, name string) (*Observation, error)

// traceRunner is the real runner: runOne, plus a trace file
// <dir>/<name>.trace.json when dir is non-empty and the run is named.
func traceRunner(dir string) runFunc {
	return func(v press.Version, p Params, seed int64, sched Schedule, name string) (*Observation, error) {
		if dir == "" || name == "" {
			return runOne(v, p, seed, sched, nil)
		}
		fs, err := trace.CreateFile(filepath.Join(dir, name+".trace.json"))
		if err != nil {
			return nil, err
		}
		obs, err := runOne(v, p, seed, sched, fs)
		if cerr := fs.Close(); err == nil && cerr != nil {
			return nil, fmt.Errorf("chaos: write trace file: %v", cerr)
		}
		return obs, err
	}
}

// deriveSeed spreads one campaign seed over its runs: index 0 is the
// baseline, 1..Budget the schedules. The multipliers are primes so
// neighbouring campaign seeds do not share run seeds.
func deriveSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i)*7919
}

// scheduleSeed decouples the schedule draw from the kernel seed, so the
// same kernel randomness under a different schedule (or vice versa)
// never aliases.
func scheduleSeed(runSeed int64) int64 { return runSeed ^ 0x5eedfa11 }

// shrinkToRepro delta-debugs a failing schedule down to a minimal one
// that still fails at least one of the originally violated oracles, and
// packages it as a replayable artifact.
func shrinkToRepro(runner runFunc, v press.Version, p Params, runSeed, baselineSeed int64, baselineTail float64,
	sched Schedule, violated []string, oracles []Oracle) *Repro {
	want := map[string]bool{}
	for _, name := range violated {
		want[name] = true
	}
	stillFails := func(cand Schedule) bool {
		obs, err := runner(v, p, runSeed, cand, "")
		if err != nil {
			return false
		}
		obs.BaselineTail = baselineTail
		for _, name := range failures(Judge(obs, oracles)) {
			if want[name] {
				return true
			}
		}
		return false
	}
	minimal, evals := Shrink(sched, stillFails)

	// Re-judge the minimal schedule to record exactly which oracles the
	// *shrunk* run violates (shrinking guarantees at least one of the
	// originals still fails; others may have healed away).
	obs, err := runner(v, p, runSeed, minimal, "")
	var final []string
	if err == nil {
		obs.BaselineTail = baselineTail
		for _, name := range failures(Judge(obs, oracles)) {
			if want[name] {
				final = append(final, name)
			}
		}
	}
	if len(final) == 0 {
		final = violated
	}
	return &Repro{
		Version:      v.String(),
		Seed:         runSeed,
		BaselineSeed: baselineSeed,
		Params:       p,
		Schedule:     minimal,
		Violations:   final,
		ShrunkFrom:   len(sched.Faults),
		ShrinkEvals:  evals,
	}
}

// RenderVerdicts formats a verdict list (used by cmd/chaos -replay).
func RenderVerdicts(vs []Verdict) string {
	var b strings.Builder
	for _, v := range vs {
		if v.Detail != "" {
			fmt.Fprintf(&b, "  %-18s %-4s  %s\n", v.Oracle, v.Status, v.Detail)
		} else {
			fmt.Fprintf(&b, "  %-18s %-4s\n", v.Oracle, v.Status)
		}
	}
	return b.String()
}
