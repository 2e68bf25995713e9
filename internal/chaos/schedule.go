package chaos

import (
	"math/rand"
	"sort"
	"strings"
	"time"

	"vivo/internal/faults"
)

// Schedule is an ordered multi-fault injection plan. Faults are sorted by
// injection time (ties broken by target, then type) and may overlap or
// repeat freely — the injector defines overlapping injection as a no-op.
type Schedule struct {
	Faults []faults.Spec `json:"faults"`
}

// String renders the schedule as a compact one-liner.
func (s Schedule) String() string {
	if len(s.Faults) == 0 {
		return "(no faults)"
	}
	parts := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, " ")
}

// Key returns a canonical identity string, used to cache shrink
// evaluations (the same candidate schedule is never re-run twice).
func (s Schedule) Key() string { return s.String() }

// SubsetOf reports whether every fault of s appears in t (as a
// multiset of identical entries). The shrinker only ever removes faults
// or shortens durations, so a shrunk schedule with equal length and
// SubsetOf(original) false means a duration was reduced.
func (s Schedule) SubsetOf(t Schedule) bool {
	used := make([]bool, len(t.Faults))
outer:
	for _, f := range s.Faults {
		for j, g := range t.Faults {
			if !used[j] && f == g {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// ReducedFrom reports whether s is a genuine reduction of t: every fault
// of s matches a distinct fault of t with the same type, target and
// injection time and a duration no longer than the original, and s is
// strictly smaller — fewer faults, or at least one shortened duration.
// This is the relation the shrinker guarantees (SubsetOf is too strict
// once the duration-halving pass has run).
func (s Schedule) ReducedFrom(t Schedule) bool {
	used := make([]bool, len(t.Faults))
	shortened := false
outerRed:
	for _, f := range s.Faults {
		for j, g := range t.Faults {
			if used[j] || f.Type != g.Type || f.Target != g.Target || f.At != g.At || f.Dur > g.Dur {
				continue
			}
			used[j] = true
			if f.Dur < g.Dur {
				shortened = true
			}
			continue outerRed
		}
		return false
	}
	return len(s.Faults) < len(t.Faults) || shortened
}

// sortFaults puts a fault list into canonical schedule order.
func sortFaults(fs []faults.Spec) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.Dur < b.Dur
	})
}

// GenConfig bounds the schedule generator.
type GenConfig struct {
	// Nodes is the target space (faults pick a node in [0, Nodes)).
	Nodes int
	// Budget is the maximum number of faults per schedule; every
	// schedule draws between 1 and Budget faults.
	Budget int
	// From and Window bound injection times: each fault fires at
	// From + U[0, Window), quantized to 100 ms.
	From   time.Duration
	Window time.Duration
	// MinDur and MaxDur bound duration-fault lengths, quantized to
	// whole seconds. Instantaneous faults always get Dur 0.
	MinDur time.Duration
	MaxDur time.Duration
	// Types is the fault menu to draw from; nil means faults.AllTypes.
	Types []faults.Type
}

// Generate draws one seeded schedule. The same (seed, cfg) always yields
// the same schedule — the generator has its own rand.Source and shares no
// state with the simulation kernel.
func Generate(seed int64, cfg GenConfig) Schedule {
	if cfg.Nodes <= 0 || cfg.Budget <= 0 || cfg.Window <= 0 {
		panic("chaos: bad generator config")
	}
	menu := cfg.Types
	if len(menu) == 0 {
		menu = faults.AllTypes
	}
	minDur, maxDur := cfg.MinDur, cfg.MaxDur
	if minDur < time.Second {
		minDur = time.Second
	}
	if maxDur < minDur {
		maxDur = minDur
	}
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(cfg.Budget)
	fs := make([]faults.Spec, 0, n)
	atSteps := int64(cfg.Window / (100 * time.Millisecond))
	if atSteps < 1 {
		atSteps = 1
	}
	durSteps := int64((maxDur-minDur)/time.Second) + 1
	for i := 0; i < n; i++ {
		f := faults.Spec{
			Type:   menu[rng.Intn(len(menu))],
			Target: rng.Intn(cfg.Nodes),
			At:     cfg.From + time.Duration(rng.Int63n(atSteps))*100*time.Millisecond,
		}
		if !f.Type.Instantaneous() {
			f.Dur = minDur + time.Duration(rng.Int63n(durSteps))*time.Second
		}
		fs = append(fs, f)
	}
	sortFaults(fs)
	return Schedule{Faults: fs}
}
