package experiments

import (
	"fmt"
	"strings"
	"time"

	"vivo/internal/faults"
	"vivo/internal/obs"
	"vivo/internal/press"
)

// The phase-2 model assumes faults are not correlated and queue at the
// system one at a time (§2.2); the companion report the paper cites
// discusses the error this introduces but measures little. This study
// quantifies it in the simulator: inject two overlapping faults, measure
// actual served work, and compare with the superposition of the two
// single-fault runs.

// MultiFaultScenario names one overlapping-fault experiment.
type MultiFaultScenario struct {
	Name   string
	A, B   faults.Type
	NodeA  int
	NodeB  int
	Offset time.Duration // injection of B relative to A
}

// DefaultMultiFaultScenarios covers the interesting combinations: two
// independent process crashes, a crash during a link fault, and resource
// exhaustion during an application hang.
func DefaultMultiFaultScenarios() []MultiFaultScenario {
	return []MultiFaultScenario{
		{Name: "two app crashes", A: faults.AppCrash, NodeA: 1, B: faults.AppCrash, NodeB: 2, Offset: 2 * time.Second},
		{Name: "link fault + app crash", A: faults.LinkDown, NodeA: 3, B: faults.AppCrash, NodeB: 1, Offset: 10 * time.Second},
		{Name: "kernel memory + app hang", A: faults.KernelMemory, NodeA: 0, B: faults.AppHang, NodeB: 2, Offset: 10 * time.Second},
		{Name: "node crash + link fault", A: faults.NodeCrash, NodeA: 1, B: faults.LinkDown, NodeB: 3, Offset: 10 * time.Second},
	}
}

// MultiFaultResult compares measured loss under overlapping faults with
// the single-fault superposition the model assumes.
type MultiFaultResult struct {
	Version   press.Version
	Scenario  string
	MeasuredA float64 // availability of the overlapping run
	Superpose float64 // availability predicted by adding single-fault losses
	// Error is Superpose - MeasuredA: positive means the model is
	// optimistic (interaction made things worse than superposition).
	Error float64
}

// lossRun runs one experiment (zero, one or two faults) and returns total
// offered and served counts over the whole run — a bare obs.Harness
// configuration with no probes: only the recorder's totals matter.
func lossRun(v press.Version, opt Options, schedule []faults.Spec) (served, failed int64) {
	h := obs.Harness{
		Seed:    opt.Seed*555 + int64(v),
		Config:  opt.Config(v),
		Rate:    opt.offered(v),
		Faults:  schedule,
		LoadFor: opt.end(),
	}
	run, err := h.Run()
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return run.Rec.Totals()
}

// MultiFaultStudy measures superposition error for the given version.
// Every lossRun — the no-fault baseline plus three runs per scenario —
// simulates on its own kernel with the same derived seed, so all of them
// fan out together under opt.Parallel workers.
func MultiFaultStudy(v press.Version, opt Options) []MultiFaultResult {
	injectAt := opt.Stabilize
	scenarios := DefaultMultiFaultScenarios()
	type counts struct{ served, failed int64 }
	// Job 0 is the baseline; jobs 3i+1..3i+3 are scenario i's A-only,
	// B-only and overlapping runs.
	runs := make([]counts, 1+3*len(scenarios))
	ForEach(len(runs), opt.workers(), func(j int) {
		var schedule []faults.Spec
		if j > 0 {
			sc := scenarios[(j-1)/3]
			specA := faults.Spec{Type: sc.A, Target: sc.NodeA, At: injectAt, Dur: opt.FaultDuration}
			specB := faults.Spec{Type: sc.B, Target: sc.NodeB, At: injectAt + sc.Offset, Dur: opt.FaultDuration}
			switch (j - 1) % 3 {
			case 0:
				schedule = []faults.Spec{specA}
			case 1:
				schedule = []faults.Spec{specB}
			case 2:
				schedule = []faults.Spec{specA, specB}
			}
		}
		s, f := lossRun(v, opt, schedule)
		runs[j] = counts{served: s, failed: f}
	})
	base := runs[0]
	baseTotal := float64(base.served + base.failed)
	baseLoss := float64(base.failed)
	out := make([]MultiFaultResult, 0, len(scenarios))
	for i, sc := range scenarios {
		a, b, ab := runs[3*i+1], runs[3*i+2], runs[3*i+3]
		availAB := float64(ab.served) / float64(ab.served+ab.failed)
		// Superposition: each single run's EXTRA loss relative to the
		// no-fault baseline, added together.
		lossA := float64(a.failed) - baseLoss
		lossB := float64(b.failed) - baseLoss
		superpose := 1 - (baseLoss+lossA+lossB)/baseTotal
		out = append(out, MultiFaultResult{
			Version:   v,
			Scenario:  sc.Name,
			MeasuredA: availAB,
			Superpose: superpose,
			Error:     superpose - availAB,
		})
	}
	return out
}

// RenderMultiFault formats the study.
func RenderMultiFault(rows []MultiFaultResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Overlapping faults vs the model's single-fault superposition")
	fmt.Fprintf(&b, "%-14s %-24s %10s %12s %9s\n", "version", "scenario", "measured", "superposed", "error")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-24s %10.5f %12.5f %+9.5f\n",
			r.Version, r.Scenario, r.MeasuredA, r.Superpose, r.Error)
	}
	return b.String()
}
