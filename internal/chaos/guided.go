package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"

	"vivo/internal/experiments"
	"vivo/internal/press"
)

// DefaultBatch is the guided search's generation size: how many
// candidate schedules each round derives from the frozen corpus before
// running them. The batch is a fixed property of the search (never
// derived from Parallel), so the corpus evolution — and therefore every
// schedule drawn — is identical at any worker count.
const DefaultBatch = 8

// exploreOneIn is the fresh-draw rate once a corpus exists: one
// candidate in this many is a brand-new Generate draw instead of a
// mutation, so the search never fixates on early discoveries.
const exploreOneIn = 8

// mutationSeed decouples the mutation-operator randomness from both the
// kernel seed and the schedule-draw stream of the same run index.
func mutationSeed(runSeed int64) int64 { return runSeed ^ 0x6d757461 /* "muta" */ }

// mutateProposals is how many mutants each mutation slot drafts before
// keeping the one predicted to light the most unseen schedule-feature
// bits (see scheduleBits). One proposal would make the operator draw the
// whole story; a handful lets "prefer novel mutants" actually bite.
const mutateProposals = 4

// GuidedOptions configures one chaos campaign.
type GuidedOptions struct {
	// Version is the PRESS version under test.
	Version press.Version
	// Seed makes the whole campaign deterministic — schedules, mutation
	// draws, run seeds, corpus evolution and report all derive from it.
	Seed int64
	// Budget is the total number of fault-schedule runs.
	Budget int
	// Batch is the generation size (0 = DefaultBatch); candidates within
	// a batch are planned against the same frozen corpus, so a Batch of
	// at least Budget makes the campaign pure random search.
	Batch int
	// Parallel bounds concurrent runs within a batch (0 = GOMAXPROCS,
	// 1 = serial); results are bit-identical at any setting.
	Parallel int
	// CorpusDir, when non-empty, receives the final corpus as one JSON
	// file per entry plus corpus_summary.txt. Side effect only.
	CorpusDir string
	// TraceDir, when non-empty, receives a Perfetto-loadable trace per
	// run, chaos_run<i>.trace.json with i the 0-based run index padded
	// to at least two digits, plus baseline.trace.json. Side effect
	// only: traces never feed back into verdicts.
	TraceDir string
	// Params fixes scale and timing; zero value means DefaultParams.
	Params Params

	// runner substitutes the simulation for tests (nil = real runs).
	runner runFunc
}

// GuidedRun is the outcome of one campaign run.
type GuidedRun struct {
	Index int
	Round int
	Seed  int64
	// Origin documents how the schedule was derived (see CorpusEntry).
	Origin   string
	Schedule Schedule
	// FreshBits is how many coverage bits this run lit first; a positive
	// count admitted the schedule to the corpus.
	FreshBits  int
	Verdicts   []Verdict
	Violations []string
	// Repro is the shrunk artifact for the first run violating each
	// distinct oracle set (later duplicates of the same violation skip
	// the shrink — the finding is already minimized).
	Repro *Repro
}

// GuidedReport is a full campaign result.
type GuidedReport struct {
	Version      press.Version
	Seed         int64
	Params       Params
	Budget       int
	Batch        int
	BaselineSeed int64
	BaselineTail float64
	Runs         []GuidedRun
	Corpus       Corpus
	// Bits is the final coverage-signature size.
	Bits int
}

// Violated counts the runs with at least one failed oracle.
func (r *GuidedReport) Violated() int {
	n := 0
	for _, gr := range r.Runs {
		if len(gr.Violations) > 0 {
			n++
		}
	}
	return n
}

// FirstViolation returns the 1-based ordinal of the first violated run
// (0 when the campaign stayed green) — the "runs until the bug" metric
// the guided-vs-random comparison uses.
func (r *GuidedReport) FirstViolation() int {
	for _, gr := range r.Runs {
		if len(gr.Violations) > 0 {
			return gr.Index + 1
		}
	}
	return 0
}

// CorpusSummary is the one-line rollup written to corpus_summary.txt and
// pinned by `make chaos-guided-smoke`.
func (r *GuidedReport) CorpusSummary() string {
	return fmt.Sprintf("corpus: %d entries, %d signature bits, %d/%d runs violated, first violation run %d",
		r.Corpus.Len(), r.Bits, r.Violated(), len(r.Runs), r.FirstViolation())
}

// RunGuided executes a chaos campaign. Each round plans a
// batch of candidate schedules serially against the frozen corpus —
// fresh Generate draws while the corpus is empty (and at a small
// exploration rate forever after), mutations of corpus members
// otherwise, each mutation slot drafting mutateProposals mutants and
// keeping the one predicted to light the most unseen schedule bits —
// then runs the batch over the worker pool and merges
// signatures, corpus admissions and verdicts serially in slot order.
// Planning never observes in-flight results, and merging never depends
// on completion order, so the whole campaign is a pure function of
// (options, oracles): bit-identical at any Parallel. A Batch of at least
// Budget is random search: one round, every slot a fresh draw.
func RunGuided(opt GuidedOptions, oracles []Oracle) (*GuidedReport, error) {
	if opt.Budget <= 0 {
		return nil, fmt.Errorf("chaos: campaign needs a positive run budget")
	}
	p := opt.Params
	if p == (Params{}) {
		p = DefaultParams()
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	batch := opt.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	if len(oracles) == 0 {
		oracles = DefaultOracles()
	}
	runner := opt.runner
	if runner == nil {
		runner = traceRunner(opt.TraceDir)
		if opt.TraceDir != "" {
			if err := os.MkdirAll(opt.TraceDir, 0o755); err != nil {
				return nil, fmt.Errorf("chaos: trace dir: %v", err)
			}
		}
	}

	v := opt.Version
	gen := p.gen(experiments.Options{FullScale: p.FullScale}.Config(v).Nodes)

	baselineSeed := deriveSeed(opt.Seed, 0)
	base, err := runner(v, p, baselineSeed, Schedule{}, "baseline")
	if err != nil {
		return nil, err
	}
	baselineTail := base.tail()

	rep := &GuidedReport{
		Version:      v,
		Seed:         opt.Seed,
		Params:       p,
		Budget:       opt.Budget,
		Batch:        batch,
		BaselineSeed: baselineSeed,
		BaselineTail: baselineTail,
		Runs:         make([]GuidedRun, 0, opt.Budget),
	}
	cov := NewCoverage()
	planCov := NewCoverage() // schedule-feature bits, for proposal ranking
	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shrunk := map[string]bool{} // violation sets already minimized

	type candidate struct {
		seed   int64
		origin string
		sched  Schedule
	}
	round := 0
	for done := 0; done < opt.Budget; round++ {
		n := opt.Budget - done
		if n > batch {
			n = batch
		}

		// Plan the batch serially against the frozen corpus.
		cands := make([]candidate, n)
		for s := 0; s < n; s++ {
			idx := done + s
			runSeed := deriveSeed(opt.Seed, idx+1)
			c := candidate{seed: runSeed}
			rng := rand.New(rand.NewSource(mutationSeed(runSeed)))
			if rep.Corpus.Len() == 0 || rng.Intn(exploreOneIn) == 0 {
				c.origin = "gen"
				c.sched = Generate(scheduleSeed(runSeed), gen)
			} else {
				pi := rng.Intn(rep.Corpus.Len())
				di := rng.Intn(rep.Corpus.Len())
				parent := rep.Corpus.Entries[pi].Schedule
				donor := rep.Corpus.Entries[di].Schedule
				// Draft a few mutants and keep the one predicted to light
				// the most unseen schedule bits (ties keep the first, so
				// the choice is deterministic).
				var best Schedule
				var bestOp MutOp
				bestScore := -1
				for t := 0; t < mutateProposals; t++ {
					child, op := Mutate(rng, parent, donor, gen)
					if score := planCov.Fresh(scheduleBits(p, child)); score > bestScore {
						best, bestOp, bestScore = child, op, score
					}
				}
				c.sched = best
				if bestOp == MutCross {
					c.origin = fmt.Sprintf("%s(c%d,c%d)", bestOp, pi, di)
				} else {
					c.origin = fmt.Sprintf("%s(c%d)", bestOp, pi)
				}
			}
			cands[s] = c
		}

		// Run the batch in parallel; results land by slot.
		obsArr := make([]*Observation, n)
		experiments.ForEach(n, workers, func(s int) {
			idx := done + s
			o, err := runner(v, p, cands[s].seed, cands[s].sched,
				fmt.Sprintf("chaos_run%02d", idx))
			if err != nil {
				// Planned schedules are valid by construction; an error
				// here is a bug, not a finding.
				panic(err)
			}
			o.BaselineTail = baselineTail
			obsArr[s] = o
		})

		// Merge serially in slot order: judge, fold coverage, admit to
		// the corpus, shrink first-of-kind violations.
		for s := 0; s < n; s++ {
			idx := done + s
			o := obsArr[s]
			verdicts := Judge(o, oracles)
			viols := failures(verdicts)
			fresh := cov.Merge(Signature(o, verdicts), idx)
			planCov.Merge(scheduleBits(p, cands[s].sched), idx)
			gr := GuidedRun{
				Index:      idx,
				Round:      round,
				Seed:       cands[s].seed,
				Origin:     cands[s].origin,
				Schedule:   cands[s].sched,
				FreshBits:  fresh,
				Verdicts:   verdicts,
				Violations: viols,
			}
			if fresh > 0 {
				rep.Corpus.Entries = append(rep.Corpus.Entries, CorpusEntry{
					Run:        idx,
					Origin:     gr.Origin,
					FreshBits:  fresh,
					Violations: viols,
					Schedule:   gr.Schedule,
				})
			}
			if key := strings.Join(viols, ","); key != "" && !shrunk[key] {
				shrunk[key] = true
				gr.Repro = shrinkToRepro(runner, v, p, gr.Seed, baselineSeed, baselineTail,
					gr.Schedule, viols, oracles)
			}
			rep.Runs = append(rep.Runs, gr)
		}
		done += n
	}
	rep.Bits = cov.Size()

	if opt.CorpusDir != "" {
		if err := rep.Corpus.WriteDir(opt.CorpusDir, rep.CorpusSummary()); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// String renders the campaign as a per-run table plus the corpus
// summary line.
func (r *GuidedReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign: %s seed=%d budget=%d batch=%d baseline=%.0f req/s\n",
		r.Version, r.Seed, r.Budget, r.Batch, r.BaselineTail)
	for _, gr := range r.Runs {
		status := "ok"
		if len(gr.Violations) > 0 {
			status = "VIOLATED " + strings.Join(gr.Violations, ",")
		}
		fmt.Fprintf(&b, "  run %03d  %-16s %-8s  +%d bits  %s\n",
			gr.Index, gr.Origin, status, gr.FreshBits, gr.Schedule)
		for _, vd := range gr.Verdicts {
			if vd.Status == Fail {
				fmt.Fprintf(&b, "           %s: %s\n", vd.Oracle, vd.Detail)
			}
		}
		if gr.Repro != nil {
			fmt.Fprintf(&b, "           shrunk %d -> %d fault(s) in %d re-runs: %s\n",
				gr.Repro.ShrunkFrom, len(gr.Repro.Schedule.Faults), gr.Repro.ShrinkEvals, gr.Repro.Schedule)
		}
	}
	fmt.Fprintf(&b, "  %s\n", r.CorpusSummary())
	return b.String()
}
