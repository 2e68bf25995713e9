package chaos

import (
	"fmt"
	"strings"
	"time"

	"vivo/internal/experiments"
	"vivo/internal/faults"
	"vivo/internal/obs"
	"vivo/internal/press"
	"vivo/internal/sim"
	"vivo/internal/trace"
)

// Soak mode is the long-horizon variant of a chaos campaign: instead of
// one fresh kernel per schedule, one kernel survives a whole chain of
// schedules back to back, so damage that a per-run campaign would reset
// between runs (a splintered membership view, a never-restarted process,
// a leaked request) accumulates and gets re-judged at every cycle
// boundary. Cycle 0 runs fault-free and measures the in-run baseline
// tail; cycles 1..Cycles each inject one Generate-drawn schedule, offset
// by the cycle's base time, and are judged at their boundary by the
// continuously checkable oracles — the trace-ordering oracles and
// well-formedness, read from the live EventFold in O(nodes²), plus
// membership convergence and tail recovery while every schedule so far
// has been recoverable. The final verdicts re-run the full suite
// (conservation and liveness need the post-drain counters) over the
// whole run.

// SoakOptions configures one soak run.
type SoakOptions struct {
	// Version is the PRESS version under test.
	Version press.Version
	// Seed makes the soak deterministic: the kernel and every cycle's
	// schedule derive from it.
	Seed int64
	// Cycles is the number of fault cycles after the fault-free
	// baseline cycle.
	Cycles int
	// Params fixes scale and timing; one cycle is Params.horizon() long.
	// Zero value means DefaultParams.
	Params Params
}

// SoakCycle is one judged cycle of a soak run.
type SoakCycle struct {
	// Index is the 1-based cycle number (cycle 0 is the baseline and is
	// not judged).
	Index int
	// Base is the cycle's start on the kernel clock; Schedule times are
	// relative to it (as Generate drew them).
	Base     time.Duration
	Schedule Schedule
	// Recoverable reports whether every schedule up to and including
	// this cycle was in the version's recoverable class — once false,
	// membership and tail checks skip for the rest of the soak (the
	// paper's splintered states persist; no operator resets them).
	Recoverable bool
	Verdicts    []Verdict
	Violations  []string
}

// SoakReport is a full soak result.
type SoakReport struct {
	Version press.Version
	Seed    int64
	Params  Params
	// CycleLen is one cycle's length (Params.horizon()).
	CycleLen time.Duration
	// BaselineTail is cycle 0's tail throughput — the in-run reference
	// for every later cycle's recovery check.
	BaselineTail float64
	Cycles       []SoakCycle
	// Final holds the full-suite verdicts over the entire run, judged
	// after the drain.
	Final           []Verdict
	FinalViolations []string
}

// Violated counts the judged cycles with at least one failed oracle,
// plus one if the final full-suite judgement failed.
func (r *SoakReport) Violated() int {
	n := 0
	for _, c := range r.Cycles {
		if len(c.Violations) > 0 {
			n++
		}
	}
	if len(r.FinalViolations) > 0 {
		n++
	}
	return n
}

// RunSoak executes a soak: one obs.Harness whose kernel runs
// (Cycles+1) × horizon() with checkpoints at every cycle boundary. sink,
// when non-nil, receives the whole run's event trace. The report is a
// pure function of (options, oracle-relevant state); there is no
// parallelism inside a soak, so determinism needs no further care.
func RunSoak(opt SoakOptions, sink trace.Sink) (*SoakReport, error) {
	if opt.Cycles <= 0 {
		return nil, fmt.Errorf("chaos: soak needs at least one fault cycle")
	}
	p := opt.Params
	if p == (Params{}) {
		p = DefaultParams()
	}
	if err := p.validate(); err != nil {
		return nil, err
	}

	v := opt.Version
	cfg := experiments.Options{FullScale: p.FullScale}.Config(v)
	gen := p.gen(cfg.Nodes)
	cycleLen := p.horizon()
	total := time.Duration(opt.Cycles+1) * cycleLen

	rep := &SoakReport{
		Version:  v,
		Seed:     opt.Seed,
		Params:   p,
		CycleLen: cycleLen,
		Cycles:   make([]SoakCycle, 0, opt.Cycles),
	}

	// Draw every cycle's schedule up front and translate it to absolute
	// kernel times; the injector validates all of it before the kernel
	// runs.
	var specs []faults.Spec
	scheds := make([]Schedule, opt.Cycles+1)
	checkpoints := make([]sim.Time, 0, opt.Cycles+1)
	for c := 1; c <= opt.Cycles; c++ {
		base := time.Duration(c) * cycleLen
		s := Generate(scheduleSeed(deriveSeed(opt.Seed, c)), gen)
		scheds[c] = s
		for _, f := range s.Faults {
			f.At += base
			specs = append(specs, f)
		}
	}
	for c := 1; c <= opt.Cycles+1; c++ {
		checkpoints = append(checkpoints, time.Duration(c)*cycleLen)
	}

	events := &EventFold{}
	recoverable := true
	h := obs.Harness{
		Seed:        deriveSeed(opt.Seed, 0),
		Config:      cfg,
		Rate:        p.LoadFraction * press.Table1Throughput(v),
		Faults:      specs,
		LoadFor:     total,
		Drain:       drain,
		Checkpoints: checkpoints,
		OnCheckpoint: func(i int, run *obs.Run) {
			end := checkpoints[i]
			if i == 0 {
				// Baseline cycle: record the reference tail, judge nothing.
				rep.BaselineTail = run.Rec.Timeline().MeanThroughput(end-recoveryTail, end)
				return
			}
			cycle := i // cycle index: checkpoint i closes fault cycle i
			sched := scheds[cycle]
			recoverable = recoverable && p.RecoverableSchedule(v, sched)
			// Judge the cycle through the standard oracle interface: an
			// Observation snapshot whose horizon is this boundary. The
			// continuously checkable oracles read the live event fold;
			// membership and recovery read the live inventory and
			// timeline, gated by the cumulative recoverable flag (an
			// unrecoverable cycle degrades every later one by design).
			o := &Observation{
				Version:      v,
				Seed:         opt.Seed,
				Schedule:     sched,
				P:            p,
				Horizon:      end,
				BaselineTail: rep.BaselineTail,
				Timeline:     run.Rec.Timeline(),
				Events:       events,
				Inventory:    run.Deployment.Inventory(),
			}
			suite := []Oracle{wellFormed{}, evictSend{}, crashAdmit{}}
			if recoverable {
				suite = append(suite, recovery{}, membership{})
			}
			verdicts := Judge(o, suite)
			rep.Cycles = append(rep.Cycles, SoakCycle{
				Index:       cycle,
				Base:        time.Duration(cycle) * cycleLen,
				Schedule:    sched,
				Recoverable: recoverable,
				Verdicts:    verdicts,
				Violations:  failures(verdicts),
			})
		},
	}
	run, err := h.Run(events, sink)
	if err != nil {
		return nil, fmt.Errorf("chaos: bad soak schedule: %v", err)
	}

	// Final judgement: the whole run as one observation, under the
	// oracles whose invariants span it — conservation and liveness need
	// the drained counters, the trace oracles read the complete fold.
	final := observe(Observation{
		Version: v,
		Seed:    opt.Seed,
		// The union schedule exists only for rendering; the per-cycle
		// verdicts already judged each schedule in context.
		Schedule: unionSchedule(scheds),
		P:        p,
		Horizon:  total,
	}, run, events)
	finalSuite := []Oracle{conservation{}, liveness{}, wellFormed{}, evictSend{}, crashAdmit{}}
	rep.Final = Judge(final, finalSuite)
	rep.FinalViolations = failures(rep.Final)
	return rep, nil
}

// unionSchedule flattens per-cycle schedules into one (cycle-relative
// times, for display only).
func unionSchedule(scheds []Schedule) Schedule {
	var fs []faults.Spec
	for _, s := range scheds {
		fs = append(fs, s.Faults...)
	}
	sortFaults(fs)
	return Schedule{Faults: fs}
}

// String renders the soak as a per-cycle table.
func (r *SoakReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: %s seed=%d cycles=%d cycle=%v baseline=%.0f req/s\n",
		r.Version, r.Seed, len(r.Cycles), r.CycleLen, r.BaselineTail)
	for _, c := range r.Cycles {
		status := "ok"
		if len(c.Violations) > 0 {
			status = "VIOLATED " + strings.Join(c.Violations, ",")
		}
		fmt.Fprintf(&b, "  cycle %02d  %-8s  %s\n", c.Index, status, c.Schedule)
		for _, vd := range c.Verdicts {
			if vd.Status == Fail {
				fmt.Fprintf(&b, "            %s: %s\n", vd.Oracle, vd.Detail)
			}
		}
	}
	status := "ok"
	if len(r.FinalViolations) > 0 {
		status = "VIOLATED " + strings.Join(r.FinalViolations, ",")
	}
	fmt.Fprintf(&b, "  final     %-8s\n", status)
	for _, vd := range r.Final {
		if vd.Status == Fail {
			fmt.Fprintf(&b, "            %s: %s\n", vd.Oracle, vd.Detail)
		}
	}
	fmt.Fprintf(&b, "  %d/%d cycles violated an invariant\n", r.Violated(), len(r.Cycles))
	return b.String()
}
