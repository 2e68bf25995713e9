package chaos

import (
	"fmt"
	"sort"
	"time"
)

// The coverage signature is the guided search's notion of "behaviour":
// a run is interesting iff its signature lights bits no earlier run lit.
// Two families of bits are folded from one observation:
//
//   - oracle bits — one per (version, fault-type, injection-stage,
//     oracle, outcome) tuple, where the stage buckets the fault's
//     injection time into the early/mid/late third of the window. These
//     tie *what was injected when* to *what the invariants said*.
//   - bigram bits — one per ordered pair of consecutive event kinds in
//     the run's trace. These capture orderings (e.g. membership change
//     followed by a send) without storing the trace itself. Fault
//     injector events alone would fold every schedule onto a handful of
//     inject/heal kinds, so their tokens carry the fault name too: a
//     previously unseen interleaving of two fault *types* is new
//     behaviour worth keeping, which is what lets the search assemble
//     multi-fault conjunctions from corpus halves instead of waiting for
//     one lucky draw.
//
// Both are pure folds over data the campaign already collects, so the
// signature is deterministic and free of wall-clock or map-order noise.

// stageOf buckets a fault's injection time into thirds of the injection
// window ("early"/"mid"/"late").
func (p Params) stageOf(at time.Duration) string {
	if p.Window <= 0 {
		return "early"
	}
	i := int(3 * (at - p.Stabilize) / p.Window)
	switch {
	case i <= 0:
		return "early"
	case i == 1:
		return "mid"
	default:
		return "late"
	}
}

// Signature folds one run into its sorted, de-duplicated coverage bits.
func Signature(o *Observation, verdicts []Verdict) []string {
	set := map[string]struct{}{}
	for _, f := range o.Schedule.Faults {
		stage := o.P.stageOf(f.At)
		for _, vd := range verdicts {
			set[fmt.Sprintf("o:%s/%s/%s/%s=%s",
				o.Version, f.Type, stage, vd.Oracle, vd.Status)] = struct{}{}
		}
	}
	if o.Events != nil {
		for bg := range o.Events.bigrams {
			set["b:"+bg[0]+">"+bg[1]] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// scheduleBits predicts, before running anything, the signature features
// a schedule could light: one bit per (fault type, stage) and one per
// ordered type pair. The guided planner ranks mutation proposals by how
// many of these a frozen accumulator has not seen — cheap novelty search
// over the schedule space that steers the corpus toward unexplored fault
// conjunctions without spending a single simulated run.
func scheduleBits(p Params, s Schedule) []string {
	var out []string
	for i, f := range s.Faults {
		out = append(out, "s:"+f.Type.String()+"/"+p.stageOf(f.At))
		for _, g := range s.Faults[i+1:] {
			out = append(out, "sp:"+f.Type.String()+">"+g.Type.String())
		}
	}
	return out
}

// Coverage accumulates signature bits across a campaign, remembering
// which run first lit each bit.
type Coverage struct {
	firstSeen map[string]int
}

// NewCoverage returns an empty accumulator.
func NewCoverage() *Coverage {
	return &Coverage{firstSeen: map[string]int{}}
}

// Merge folds one run's signature in and returns how many bits were new.
// run is the (0-based) global run index recorded as the bit's discoverer.
func (c *Coverage) Merge(sig []string, run int) int {
	fresh := 0
	for _, bit := range sig {
		if _, ok := c.firstSeen[bit]; !ok {
			c.firstSeen[bit] = run
			fresh++
		}
	}
	return fresh
}

// Fresh counts how many distinct bits of sig are not yet in the
// accumulator, without merging them (the planner's scoring primitive).
func (c *Coverage) Fresh(sig []string) int {
	n := 0
	seen := map[string]bool{}
	for _, bit := range sig {
		if seen[bit] {
			continue
		}
		seen[bit] = true
		if _, ok := c.firstSeen[bit]; !ok {
			n++
		}
	}
	return n
}

// Size is the number of distinct bits seen so far.
func (c *Coverage) Size() int { return len(c.firstSeen) }

// Bits returns every bit in sorted order (for rendering and tests).
func (c *Coverage) Bits() []string {
	out := make([]string, 0, len(c.firstSeen))
	for k := range c.firstSeen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
