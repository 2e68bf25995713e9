package chaos

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"vivo/internal/faults"
	"vivo/internal/metrics"
	"vivo/internal/press"
	"vivo/internal/sim"
)

// The mutation tests exercise the same generator geometry as the
// schedule tests: testGen() from schedule_test.go, a 4-node deployment.

// checkWithinBounds asserts a mutant stays on Generate's lattice: fault
// count within budget, targets in range, injection times on the 100 ms
// grid inside the window, durations whole seconds in [MinDur, MaxDur]
// (zero for instantaneous types).
func checkWithinBounds(t *testing.T, s Schedule, cfg GenConfig) {
	t.Helper()
	if len(s.Faults) == 0 || len(s.Faults) > cfg.Budget {
		t.Fatalf("schedule has %d faults, want 1..%d: %s", len(s.Faults), cfg.Budget, s)
	}
	minDur, maxDur := normalizedDurBounds(cfg)
	for _, f := range s.Faults {
		if f.Target < 0 || f.Target >= cfg.Nodes {
			t.Errorf("target n%d out of range 0..%d", f.Target, cfg.Nodes-1)
		}
		if f.At < cfg.From || f.At >= cfg.From+cfg.Window {
			t.Errorf("injection time %v outside [%v, %v)", f.At, cfg.From, cfg.From+cfg.Window)
		}
		if (f.At-cfg.From)%(100*time.Millisecond) != 0 {
			t.Errorf("injection time %v off the 100ms lattice", f.At)
		}
		if f.Type.Instantaneous() {
			if f.Dur != 0 {
				t.Errorf("instantaneous %s carries duration %v", f.Type, f.Dur)
			}
			continue
		}
		if f.Dur < minDur || f.Dur > maxDur {
			t.Errorf("duration %v outside [%v, %v]", f.Dur, minDur, maxDur)
		}
		if f.Dur%time.Second != 0 {
			t.Errorf("duration %v not whole seconds", f.Dur)
		}
	}
}

// checkInjectorValid asserts every mutant fault passes the injector's own
// Schedule validation — the contract that lets the guided loop panic on
// runner errors instead of treating them as findings.
func checkInjectorValid(t *testing.T, s Schedule) {
	t.Helper()
	k := sim.New(1)
	d := press.NewDeployment(k, press.DefaultConfig(press.TCPPress))
	inj := faults.NewInjector(k, d, metrics.NewRecorder(k, time.Second))
	for _, f := range s.Faults {
		if err := inj.Schedule(f.Type, f.Target, f.At, f.Dur); err != nil {
			t.Errorf("mutant fault %s fails injector validation: %v", f, err)
		}
	}
}

// checkJSONRoundTrip asserts the mutant survives the repro JSON dialect
// byte-identically: marshal → unmarshal → marshal yields the same bytes.
func checkJSONRoundTrip(t *testing.T, s Schedule) {
	t.Helper()
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Schedule
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("JSON round trip not byte-identical:\n  %s\n  %s", b1, b2)
	}
}

// forceOp draws rng states until Mutate picks the wanted operator on the
// given parent/donor, so each table entry genuinely exercises its op.
func forceOp(t *testing.T, want MutOp, parent, donor Schedule, cfg GenConfig) (Schedule, int64) {
	t.Helper()
	for seed := int64(1); seed < 10_000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		child, op := Mutate(rng, parent, donor, cfg)
		if op == want {
			return child, seed
		}
	}
	t.Fatalf("no rng seed under 10000 drew op %s for parent %s", want, parent)
	return Schedule{}, 0
}

// TestMutationOperators is the table-driven pass over every operator:
// each mutant must stay on the generator lattice, re-validate under
// faults.Schedule, and round-trip through the repro JSON byte-identically.
func TestMutationOperators(t *testing.T) {
	cfg := testGen()
	single := Generate(11, GenConfig{Nodes: cfg.Nodes, Budget: 1, From: cfg.From,
		Window: cfg.Window, MinDur: cfg.MinDur, MaxDur: cfg.MaxDur})
	full := Schedule{Faults: []faults.Spec{
		{Type: faults.LinkDown, Target: 0, At: cfg.From, Dur: cfg.MinDur},
		{Type: faults.AppCrash, Target: 1, At: cfg.From + 500*time.Millisecond},
		{Type: faults.NodeHang, Target: 2, At: cfg.From + time.Second, Dur: cfg.MaxDur},
		{Type: faults.KernelMemory, Target: 3, At: cfg.From + 2*time.Second, Dur: cfg.MinDur},
	}}
	instOnly := Schedule{Faults: []faults.Spec{
		{Type: faults.AppCrash, Target: 0, At: cfg.From},
		{Type: faults.BadPtrNull, Target: 1, At: cfg.From + 300*time.Millisecond},
	}}
	donor := Generate(23, cfg)

	cases := []struct {
		name   string
		op     MutOp
		parent Schedule
		donor  Schedule
		check  func(t *testing.T, parent, child Schedule)
	}{
		{"add grows by one", MutAdd, single, donor, func(t *testing.T, parent, child Schedule) {
			if len(child.Faults) != len(parent.Faults)+1 {
				t.Errorf("add: %d faults, want %d", len(child.Faults), len(parent.Faults)+1)
			}
			if !parent.SubsetOf(child) {
				t.Errorf("add: parent %s not a subset of child %s", parent, child)
			}
		}},
		{"remove shrinks by one", MutRemove, full, donor, func(t *testing.T, parent, child Schedule) {
			if len(child.Faults) != len(parent.Faults)-1 {
				t.Errorf("remove: %d faults, want %d", len(child.Faults), len(parent.Faults)-1)
			}
			if !child.SubsetOf(parent) {
				t.Errorf("remove: child %s not a subset of parent %s", child, parent)
			}
		}},
		{"shift moves one time", MutShift, full, donor, func(t *testing.T, parent, child Schedule) {
			if len(child.Faults) != len(parent.Faults) {
				t.Errorf("shift: fault count changed %d -> %d", len(parent.Faults), len(child.Faults))
			}
			moved := 0
			for i := range child.Faults {
				if child.Faults[i] != parent.Faults[i] {
					moved++
				}
			}
			// Sorting can permute entries after one moves; at least the
			// multiset must differ in exactly the timing dimension.
			if !child.SubsetOf(parent) && moved == 0 {
				t.Errorf("shift: nothing moved in %s", child)
			}
		}},
		{"stretch resizes one duration", MutStretch, full, donor, func(t *testing.T, parent, child Schedule) {
			if len(child.Faults) != len(parent.Faults) {
				t.Errorf("stretch: fault count changed %d -> %d", len(parent.Faults), len(child.Faults))
			}
		}},
		{"crossover splices donor suffix", MutCross, full, donor, func(t *testing.T, parent, child Schedule) {
			// Every child fault comes from one of the two parents.
			pool := Schedule{Faults: append(append([]faults.Spec{}, parent.Faults...), donor.Faults...)}
			if !child.SubsetOf(pool) {
				t.Errorf("cross: child %s contains faults from neither parent (%s | %s)",
					child, parent, donor)
			}
		}},
		{"remove falls through on single fault", MutShift, single, donor, nil},
		{"stretch falls through without durations", MutShift, instOnly, donor, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			child, seed := forceOp(t, tc.op, tc.parent, tc.donor, cfg)
			checkWithinBounds(t, child, cfg)
			checkInjectorValid(t, child)
			checkJSONRoundTrip(t, child)
			if tc.check != nil {
				tc.check(t, tc.parent, child)
			}
			// Same rng state, same mutant.
			again, op2 := Mutate(rand.New(rand.NewSource(seed)), tc.parent, tc.donor, cfg)
			if op2 != tc.op || again.Key() != child.Key() {
				t.Errorf("mutation not deterministic: got (%s, %s), want (%s, %s)",
					op2, again, tc.op, child)
			}
		})
	}
}

// TestMutateStaysValidUnderChurn hammers Mutate through long random
// chains — every intermediate schedule must stay valid, JSON-stable and
// injectable, whatever operator sequence the rng draws.
func TestMutateStaysValidUnderChurn(t *testing.T) {
	cfg := testGen()
	rng := rand.New(rand.NewSource(99))
	cur := Generate(7, cfg)
	donor := Generate(8, cfg)
	for i := 0; i < 500; i++ {
		next, _ := Mutate(rng, cur, donor, cfg)
		checkWithinBounds(t, next, cfg)
		checkJSONRoundTrip(t, next)
		donor, cur = cur, next
	}
	checkInjectorValid(t, cur)
}

// TestMutationFallthroughApplicability pins the fallback rule: the drawn
// operator advances to the next applicable one, so Mutate never returns
// an empty or over-budget schedule.
func TestMutationFallthroughApplicability(t *testing.T) {
	cfg := testGen()
	single := Schedule{Faults: []faults.Spec{{Type: faults.AppCrash, Target: 0, At: cfg.From}}}
	for seed := int64(0); seed < 200; seed++ {
		child, op := Mutate(rand.New(rand.NewSource(seed)), single, Schedule{}, cfg)
		if op == MutRemove {
			t.Fatalf("seed %d: remove chosen on a single-fault schedule", seed)
		}
		if op == MutCross {
			t.Fatalf("seed %d: crossover chosen with an empty donor", seed)
		}
		if len(child.Faults) == 0 {
			t.Fatalf("seed %d: empty mutant", seed)
		}
	}
}
