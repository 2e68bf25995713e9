package chaos

import (
	"math/rand"
	"time"

	"vivo/internal/faults"
)

// MutOp names a schedule mutation operator. The guided search draws an
// operator per mutation and records it in the corpus entry's origin, so a
// corpus file documents how each schedule was derived.
type MutOp int

const (
	// MutAdd inserts one freshly drawn fault (respecting the budget).
	MutAdd MutOp = iota
	// MutRemove drops one fault (never the last one).
	MutRemove
	// MutShift moves one fault's injection time by a few 100 ms steps,
	// clamped to the injection window.
	MutShift
	// MutStretch grows or shrinks one duration fault by whole seconds,
	// clamped to [MinDur, MaxDur].
	MutStretch
	// MutCross splices a donor schedule's suffix onto the parent's
	// prefix at a drawn cut time (one-point time crossover).
	MutCross

	numMutOps
)

// String names the operator the way corpus origins print it.
func (m MutOp) String() string {
	switch m {
	case MutAdd:
		return "add"
	case MutRemove:
		return "remove"
	case MutShift:
		return "shift"
	case MutStretch:
		return "stretch"
	case MutCross:
		return "cross"
	default:
		return "mutop(?)"
	}
}

// maxShiftSteps bounds how far MutShift moves a fault (in 100 ms steps):
// small moves explore orderings near a known-interesting schedule instead
// of teleporting across the window (MutAdd and MutCross cover the jumps).
const maxShiftSteps = 50

// normalizedDurBounds mirrors Generate's duration clamping so mutants and
// generated schedules draw from the same lattice.
func normalizedDurBounds(cfg GenConfig) (minDur, maxDur time.Duration) {
	minDur, maxDur = cfg.MinDur, cfg.MaxDur
	if minDur < time.Second {
		minDur = time.Second
	}
	if maxDur < minDur {
		maxDur = minDur
	}
	return minDur, maxDur
}

// atSteps is the number of 100 ms injection-time lattice points in the
// window (at least one), exactly as Generate counts them.
func atSteps(cfg GenConfig) int64 {
	n := int64(cfg.Window / (100 * time.Millisecond))
	if n < 1 {
		n = 1
	}
	return n
}

// drawFault draws one fault from the generator's lattice — the same
// quantization as Generate, so every mutant stays replayable with stable
// string/JSON forms.
func drawFault(rng *rand.Rand, cfg GenConfig) faults.Spec {
	menu := cfg.Types
	if len(menu) == 0 {
		menu = faults.AllTypes
	}
	minDur, maxDur := normalizedDurBounds(cfg)
	durSteps := int64((maxDur-minDur)/time.Second) + 1
	f := faults.Spec{
		Type:   menu[rng.Intn(len(menu))],
		Target: rng.Intn(cfg.Nodes),
		At:     cfg.From + time.Duration(rng.Int63n(atSteps(cfg)))*100*time.Millisecond,
	}
	if !f.Type.Instantaneous() {
		f.Dur = minDur + time.Duration(rng.Int63n(durSteps))*time.Second
	}
	return f
}

// Mutate derives one child schedule from parent (and donor, for the
// crossover) under the generator bounds. The drawn operator falls through
// deterministically to the next applicable one (e.g. remove on a
// single-fault schedule becomes shift), so Mutate always returns a valid,
// non-empty schedule on the same quantization lattice as Generate:
// injection times on the 100 ms grid inside [From, From+Window), whole-
// second durations in [MinDur, MaxDur], targets in [0, Nodes), at most
// Budget faults. The same (rng state, parent, donor, cfg) always yields
// the same child.
func Mutate(rng *rand.Rand, parent, donor Schedule, cfg GenConfig) (Schedule, MutOp) {
	if cfg.Nodes <= 0 || cfg.Budget <= 0 || cfg.Window <= 0 {
		panic("chaos: bad generator config")
	}
	if len(parent.Faults) == 0 {
		panic("chaos: cannot mutate an empty schedule")
	}
	op := MutOp(rng.Intn(int(numMutOps)))
	for !applicable(op, parent, donor, cfg) {
		op = (op + 1) % numMutOps
	}
	fs := append([]faults.Spec(nil), parent.Faults...)
	switch op {
	case MutAdd:
		fs = append(fs, drawFault(rng, cfg))
	case MutRemove:
		i := rng.Intn(len(fs))
		fs = append(fs[:i], fs[i+1:]...)
	case MutShift:
		i := rng.Intn(len(fs))
		steps := atSteps(cfg)
		span := steps - 1
		if span > maxShiftSteps {
			span = maxShiftSteps
		}
		delta := rng.Int63n(2*span+1) - span
		at := fs[i].At + time.Duration(delta)*100*time.Millisecond
		lo, hi := cfg.From, cfg.From+time.Duration(steps-1)*100*time.Millisecond
		if at < lo {
			at = lo
		}
		if at > hi {
			at = hi
		}
		fs[i].At = at
	case MutStretch:
		idxs := durationFaults(fs)
		i := idxs[rng.Intn(len(idxs))]
		minDur, maxDur := normalizedDurBounds(cfg)
		span := int64((maxDur - minDur) / time.Second)
		delta := rng.Int63n(2*span+1) - span
		d := fs[i].Dur + time.Duration(delta)*time.Second
		if d < minDur {
			d = minDur
		}
		if d > maxDur {
			d = maxDur
		}
		fs[i].Dur = d
	case MutCross:
		cut := cfg.From + time.Duration(rng.Int63n(atSteps(cfg)))*100*time.Millisecond
		var child []faults.Spec
		for _, f := range parent.Faults {
			if f.At < cut {
				child = append(child, f)
			}
		}
		for _, f := range donor.Faults {
			if f.At >= cut {
				child = append(child, f)
			}
		}
		if len(child) == 0 {
			// The cut left nothing on either side; keep the donor.
			child = append(child, donor.Faults...)
		}
		fs = child
	}
	sortFaults(fs)
	if len(fs) > cfg.Budget {
		fs = fs[:cfg.Budget]
	}
	return Schedule{Faults: fs}, op
}

// applicable reports whether op can act on parent under cfg; MutShift is
// the universal fallback.
func applicable(op MutOp, parent, donor Schedule, cfg GenConfig) bool {
	switch op {
	case MutAdd:
		return len(parent.Faults) < cfg.Budget
	case MutRemove:
		return len(parent.Faults) > 1
	case MutShift:
		return true
	case MutStretch:
		return len(durationFaults(parent.Faults)) > 0
	case MutCross:
		return len(donor.Faults) > 0
	}
	return false
}

// durationFaults lists the indices of faults with a repair duration.
func durationFaults(fs []faults.Spec) []int {
	var out []int
	for i, f := range fs {
		if f.Dur > 0 {
			out = append(out, i)
		}
	}
	return out
}
