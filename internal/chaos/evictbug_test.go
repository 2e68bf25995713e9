package chaos

import (
	"path/filepath"
	"reflect"
	"testing"

	"vivo/internal/press"
)

// evictBugVersion is the ordering-oracle analogue of the ForbidFault
// fixture: a TCP-PRESS-HB clone whose reconfigure path sends one parting
// message to the peer it just evicted (VersionSpec.EvictFarewell). Every
// eviction therefore violates "no send after eviction" — a planted
// protocol bug only an ordering fold can see (counts, membership and
// throughput all stay healthy).
var evictBugVersion = press.Register(func() press.VersionSpec {
	spec := press.TCPPressHB.Spec()
	spec.Name = "TCP-PRESS-HB-EVICTBUG"
	spec.EvictFarewell = true
	return spec
}())

// TestEvictFarewellFixtureDetected is the cheap half: one campaign run
// against the planted bug must fail no-send-after-evict, and the same
// schedule against the clean TCP-PRESS-HB must pass it — pinning that
// the oracle sees exactly the planted reordering and nothing else.
func TestEvictFarewellFixtureDetected(t *testing.T) {
	// Seed 1's first schedule includes a node-crash (see
	// TestFixtureViolationShrinksAndReplays), which heartbeats detect and
	// answer with an eviction — triggering the farewell.
	for _, tc := range []struct {
		v        press.Version
		violated bool
	}{
		{evictBugVersion, true},
		{press.TCPPressHB, false},
	} {
		rep, err := RunGuided(randomSearch(tc.v, 1, 1, testParams()), []Oracle{evictSend{}})
		if err != nil {
			t.Fatal(err)
		}
		got := len(rep.Runs[0].Violations) > 0
		if got != tc.violated {
			t.Fatalf("%s: violated=%v, want %v\n%s", tc.v, got, tc.violated, rep)
		}
	}
}

// TestEvictFarewellShrinksAndReplays is the ordering-oracle end-to-end
// failure path, mirroring TestFixtureViolationShrinksAndReplays: detect
// the planted reordering bug under the full default suite, shrink the
// multi-fault schedule to a strict reduction, round-trip the repro
// artifact, and reproduce the violation on replay.
func TestEvictFarewellShrinksAndReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("shrink re-runs many simulations")
	}
	rep, err := RunGuided(randomSearch(evictBugVersion, 1, 1, testParams()), DefaultOracles())
	if err != nil {
		t.Fatal(err)
	}
	rr := rep.Runs[0]
	if len(rr.Schedule.Faults) < 2 {
		t.Fatalf("fixture schedule has %d faults; need a multi-fault schedule to demonstrate shrinking", len(rr.Schedule.Faults))
	}
	found := false
	for _, v := range rr.Violations {
		if v == "no-send-after-evict" {
			found = true
		}
	}
	if !found || rr.Repro == nil {
		t.Fatalf("planted ordering bug not detected: violations %v\n%s", rr.Violations, rep)
	}

	min := rr.Repro.Schedule
	if !min.ReducedFrom(rr.Schedule) {
		t.Fatalf("shrunk schedule %s is not a strict reduction of %s", min, rr.Schedule)
	}
	if len(min.Faults) >= len(rr.Schedule.Faults) {
		t.Fatalf("shrink removed nothing: %s from %s", min, rr.Schedule)
	}

	// Artifact round trip, then deterministic replay.
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
	verdicts, reproduced, _, err := Replay(back, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reproduced {
		t.Fatalf("replay did not reproduce; verdicts:\n%s", RenderVerdicts(verdicts))
	}
}
