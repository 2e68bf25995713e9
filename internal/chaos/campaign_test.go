package chaos

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"vivo/internal/faults"
	"vivo/internal/press"
)

// liteOracles is the cheap invariant subset used where the test's point
// is determinism, not judgement (no shrink runs unless something is
// genuinely broken — in which case failing loudly is correct).
func liteOracles() []Oracle {
	return []Oracle{conservation{}, liveness{}, wellFormed{}}
}

func testRuns(t *testing.T) int {
	if testing.Short() {
		return 2
	}
	return 4
}

// testParams shrinks the campaign geometry so one run simulates ~1
// virtual minute instead of DefaultParams' ~3 — the difference between
// seconds and minutes per test on a one-core CI box, without changing
// what the harness exercises (multi-fault schedules still overlap and
// repeat inside the window).
func testParams() Params {
	p := DefaultParams()
	p.LoadFraction = 0.35
	p.Stabilize = 10 * time.Second
	p.Window = 15 * time.Second
	p.MinDur = 2 * time.Second
	p.MaxDur = 6 * time.Second
	p.Settle = 30 * time.Second
	return p
}

// randomSearch configures a random-search campaign: a batch covering the
// whole budget plans every run against the empty corpus.
func randomSearch(v press.Version, seed int64, runs int, p Params) GuidedOptions {
	return GuidedOptions{Version: v, Seed: seed, Budget: runs, Batch: runs, Params: p}
}

// TestCampaignDeterministicAcrossParallel runs the same random-search
// campaign twice, serial vs 4 workers, and requires bit-identical reports
// and byte-identical per-run trace files.
func TestCampaignDeterministicAcrossParallel(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	opt := randomSearch(press.TCPPress, 2, testRuns(t), testParams())
	opt.Parallel, opt.TraceDir = 1, dirA
	repA, err := RunGuided(opt, liteOracles())
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallel, opt.TraceDir = 4, dirB
	repB, err := RunGuided(opt, liteOracles())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("reports differ across Parallel settings:\n%s\nvs\n%s", repA, repB)
	}
	entries, err := os.ReadDir(dirA)
	if err != nil || len(entries) != opt.Budget+1 {
		t.Fatalf("trace dir: %d files, err %v (want %d)", len(entries), err, opt.Budget+1)
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(dirA, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, e.Name()))
		if err != nil {
			t.Fatalf("trace %s missing from parallel run: %v", e.Name(), err)
		}
		if string(a) != string(b) {
			t.Fatalf("trace %s differs between Parallel=1 and Parallel=4", e.Name())
		}
	}
}

// TestCampaignOraclesGreen: a real multi-run campaign under the full
// default suite finds no violations — the service actually conserves
// requests, resolves everything, and balances its fault trace under
// randomized multi-fault schedules.
func TestCampaignOraclesGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run campaign; covered by make chaos-smoke")
	}
	rep, err := RunGuided(randomSearch(press.TCPPressHB, 3, 4, testParams()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violated() != 0 {
		t.Fatalf("violations in a supposedly green campaign:\n%s", rep)
	}
	if rep.BaselineTail <= 0 {
		t.Fatal("campaign did not measure a baseline")
	}
}

// TestFixtureViolationShrinksAndReplays is the end-to-end failure path:
// arm the intentionally broken ForbidFault fixture against a campaign
// whose first schedule injects kernel-memory among four faults, and
// require detection, shrinking to a strict reduction (4 faults -> 1),
// a round-trippable repro artifact, and a deterministic replay that
// reproduces the violation.
func TestFixtureViolationShrinksAndReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("shrink re-runs many simulations; covered by make chaos-smoke")
	}
	// Under testParams, campaign seed 1's run 0 draws: app-hang +
	// kernel-memory + memory-pinning + node-crash (see Generate; pinned
	// by the assertions below rather than trusted).
	oracles := append(DefaultOracles(), ForbidFault{T: faults.KernelMemory})
	rep, err := RunGuided(randomSearch(press.TCPPress, 1, 1, testParams()), oracles)
	if err != nil {
		t.Fatal(err)
	}
	rr := rep.Runs[0]
	if len(rr.Schedule.Faults) < 2 {
		t.Fatalf("fixture schedule has %d faults; need a multi-fault schedule to demonstrate shrinking", len(rr.Schedule.Faults))
	}
	if len(rr.Violations) == 0 || rr.Repro == nil {
		t.Fatalf("fixture violation not detected:\n%s", rep)
	}
	found := false
	for _, v := range rr.Violations {
		if v == "forbid-kernel-memory" {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations %v lack the fixture oracle", rr.Violations)
	}

	min := rr.Repro.Schedule
	if len(min.Faults) != 1 || min.Faults[0].Type != faults.KernelMemory {
		t.Fatalf("shrunk schedule %s, want the lone kernel-memory fault", min)
	}
	if !min.ReducedFrom(rr.Schedule) {
		t.Fatalf("shrunk schedule %s is not a strict reduction of %s", min, rr.Schedule)
	}
	if rr.Repro.ShrunkFrom != len(rr.Schedule.Faults) || rr.Repro.ShrinkEvals <= 0 {
		t.Fatalf("repro bookkeeping wrong: %+v", rr.Repro)
	}

	// Artifact round trip.
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteRepro(path, *rr.Repro); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, *rr.Repro) {
		t.Fatalf("repro artifact round trip changed it:\n%+v\nvs\n%+v", back, *rr.Repro)
	}

	// Deterministic replay reproduces the violation.
	verdicts, reproduced, _, err := Replay(back, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reproduced {
		t.Fatalf("replay did not reproduce; verdicts:\n%s", RenderVerdicts(verdicts))
	}
	// Replaying twice yields identical verdicts (pure determinism).
	verdicts2, _, _, err := Replay(back, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(verdicts, verdicts2) {
		t.Fatal("two replays of the same artifact disagree")
	}
}
