package chaos

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"vivo/internal/experiments"
	"vivo/internal/faults"
	"vivo/internal/metrics"
	"vivo/internal/press"
	"vivo/internal/trace"
)

// stubRun is the synthetic runner behind the guided-search unit tests: a
// healthy observation whose event fold faithfully records the schedule's
// injections and heals (in timestamp order, inject before heal at ties)
// but simulates nothing. Every default oracle passes on it; the
// ForbidPair fixture fails iff the schedule carries both halves — which
// makes search efficiency measurable in microseconds per "run".
func stubRun(v press.Version, p Params, seed int64, sched Schedule, name string) (*Observation, error) {
	horizon := p.horizon()
	type ev struct {
		at   time.Duration
		heal bool
		node int
		note string
	}
	var evs []ev
	for _, f := range sched.Faults {
		evs = append(evs, ev{at: f.At, node: f.Target, note: f.Type.String()})
		evs = append(evs, ev{at: f.At + f.Dur, heal: true, node: f.Target, note: f.Type.String()})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return !evs[i].heal && evs[j].heal
	})
	events := &EventFold{}
	for _, e := range evs {
		name := trace.EvFaultInject
		if e.heal {
			name = trace.EvFaultHeal
		}
		events.Record(trace.Event{
			TS: e.at, Cat: trace.Fault, Name: name,
			Node: e.node, Peer: trace.NoNode, Note: e.note,
		})
	}
	pts := make([]metrics.Point, int(horizon/time.Second))
	for i := range pts {
		pts[i] = metrics.Point{At: time.Duration(i) * time.Second, Throughput: 1000}
	}
	inv := make([]press.NodeView, 4)
	for i := range inv {
		inv[i] = press.NodeView{
			Node: i, Up: true, ProcAlive: true, Joined: true,
			Members: []int{0, 1, 2, 3},
		}
	}
	return &Observation{
		Version:  v,
		Seed:     seed,
		Schedule: sched,
		P:        p,
		Horizon:  horizon,
		Issued:   1000, Unsettled: 0,
		Served: 990, Failed: 10,
		Outcomes: map[metrics.Outcome]int64{
			metrics.Served: 990, metrics.Refused: 4,
			metrics.ConnectTimeout: 3, metrics.RequestTimeout: 3,
		},
		Timeline:  metrics.Timeline{Bin: time.Second, Points: pts},
		Events:    events,
		Inventory: inv,
	}, nil
}

// pairParams is the seeded-violation geometry: two-fault schedules make
// the forbidden conjunction rare under independent random draws, which is
// exactly the regime where corpus crossover should pay off.
func pairParams() Params {
	p := testParams()
	p.Budget = 2
	return p
}

// TestGuidedDeterministicAcrossParallel runs the same guided campaign
// serially and with eight workers and requires bit-identical reports and
// corpus directories — the determinism contract behind
// `make chaos-guided-smoke`'s twice-run cmp.
func TestGuidedDeterministicAcrossParallel(t *testing.T) {
	oracles := append(liteOracles(), ForbidPair{A: faults.KernelMemory, B: faults.LinkDown})
	run := func(parallel int, dir string) *GuidedReport {
		rep, err := RunGuided(GuidedOptions{
			Version:   press.TCPPress,
			Seed:      5,
			Budget:    40,
			Parallel:  parallel,
			CorpusDir: dir,
			Params:    pairParams(),
			runner:    stubRun,
		}, oracles)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	d1, d8 := t.TempDir(), t.TempDir()
	r1 := run(1, d1)
	r8 := run(8, d8)
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("guided reports differ between -parallel 1 and 8:\n%s\nvs\n%s", r1, r8)
	}
	if r1.String() != r8.String() {
		t.Fatal("rendered guided reports differ between -parallel 1 and 8")
	}
	// The written corpus must match file for file, byte for byte.
	e1, err := os.ReadDir(d1)
	if err != nil {
		t.Fatal(err)
	}
	e8, err := os.ReadDir(d8)
	if err != nil {
		t.Fatal(err)
	}
	if len(e1) != len(e8) || len(e1) < 2 {
		t.Fatalf("corpus dirs differ in shape: %d vs %d files", len(e1), len(e8))
	}
	for i := range e1 {
		if e1[i].Name() != e8[i].Name() {
			t.Fatalf("corpus file %d named %q vs %q", i, e1[i].Name(), e8[i].Name())
		}
		b1, err := os.ReadFile(filepath.Join(d1, e1[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		b8, err := os.ReadFile(filepath.Join(d8, e8[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b8) {
			t.Fatalf("corpus file %s differs between -parallel 1 and 8", e1[i].Name())
		}
	}
}

// TestGuidedRealRunsDeterministicAcrossParallel is the same contract over
// the real simulation runner (small budget; the expensive half of the
// guarantee).
func TestGuidedRealRunsDeterministicAcrossParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations; the stub variant covers the logic in -short")
	}
	run := func(parallel int) *GuidedReport {
		rep, err := RunGuided(GuidedOptions{
			Version:  press.TCPPress,
			Seed:     3,
			Budget:   5,
			Parallel: parallel,
			Params:   testParams(),
		}, liteOracles())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r8 := run(1), run(8)
	if !reflect.DeepEqual(r1.Runs, r8.Runs) || !reflect.DeepEqual(r1.Corpus, r8.Corpus) || r1.Bits != r8.Bits {
		t.Fatalf("guided campaign differs between -parallel 1 and 8:\n%s\nvs\n%s", r1, r8)
	}
}

// TestGuidedFirstRoundMatchesRandom pins random search as the one-round
// case of the search loop: while the corpus is empty every run is an
// independent draw — run i gets seed deriveSeed(seed, i+1) and schedule
// Generate(scheduleSeed(thatSeed), gen) — so a Batch >= Budget campaign
// is pure random search, and any later difference in a guided campaign
// is attributable to guidance, not to a different random sequence.
func TestGuidedFirstRoundMatchesRandom(t *testing.T) {
	p := pairParams()
	const seed, budget = 7, 4
	rep, err := RunGuided(GuidedOptions{
		Version: press.TCPPress, Seed: seed, Budget: budget, Batch: 8,
		Params: p, runner: stubRun,
	}, liteOracles())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != budget {
		t.Fatalf("%d runs, want %d", len(rep.Runs), budget)
	}
	gen := p.gen(experiments.Options{FullScale: p.FullScale}.Config(press.TCPPress).Nodes)
	for i, gr := range rep.Runs {
		wantSeed := deriveSeed(seed, i+1)
		want := Generate(scheduleSeed(wantSeed), gen)
		if gr.Origin != "gen" {
			t.Fatalf("run %d origin %q before any corpus exists", i, gr.Origin)
		}
		if gr.Seed != wantSeed {
			t.Fatalf("run %d seed %d, want %d", i, gr.Seed, wantSeed)
		}
		if gr.Schedule.Key() != want.Key() {
			t.Fatalf("run %d schedule diverges from the independent draw:\n  %s\n  %s",
				i, gr.Schedule, want)
		}
	}
}

// median of strictly positive samples; campaigns that never violated
// count as budget+1 (worse than any hit).
func medianRuns(samples []int, budget int) int {
	vals := append([]int{}, samples...)
	for i, v := range vals {
		if v == 0 {
			vals[i] = budget + 1
		}
	}
	sort.Ints(vals)
	return vals[len(vals)/2]
}

// TestGuidedBeatsRandomOnSeededPair is the acceptance benchmark: on the
// ForbidPair seeded violation (both kernel-memory and link-down in one
// run's trace), the guided search must reproduce the violation in fewer
// runs than pure random draws at the same budget — median over seven
// seeds, exact medians pinned since every campaign is deterministic.
func TestGuidedBeatsRandomOnSeededPair(t *testing.T) {
	p := pairParams()
	oracles := append(liteOracles(), ForbidPair{A: faults.KernelMemory, B: faults.LinkDown})
	const budget = 256
	seeds := []int64{1, 2, 3, 4, 5, 6, 7}
	var g, r []int
	for _, seed := range seeds {
		grep, err := RunGuided(GuidedOptions{
			Version: press.TCPPress, Seed: seed, Budget: budget,
			Params: p, runner: stubRun,
		}, oracles)
		if err != nil {
			t.Fatal(err)
		}
		g = append(g, grep.FirstViolation())
		ropt := randomSearch(press.TCPPress, seed, budget, p)
		ropt.runner = stubRun
		rrep, err := RunGuided(ropt, oracles)
		if err != nil {
			t.Fatal(err)
		}
		r = append(r, rrep.FirstViolation())
	}
	gm, rm := medianRuns(g, budget), medianRuns(r, budget)
	t.Logf("first-violation runs over seeds %v: guided %v (median %d), random %v (median %d)",
		seeds, g, gm, r, rm)
	if gm >= rm {
		t.Fatalf("guided search (median %d runs, %v) does not beat random (median %d runs, %v)",
			gm, g, rm, r)
	}
	// Deterministic campaigns admit exact pins; a drift here means the
	// search changed, which must be a conscious decision.
	if gm != 10 || rm != 79 {
		t.Errorf("medians moved: guided %d (want 10), random %d (want 79)", gm, rm)
	}
}
