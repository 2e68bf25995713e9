package chaos

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"vivo/internal/faults"
)

// Fault is one entry of a chaos schedule: inject Type into node Target at
// virtual time At; for duration faults the component is repaired at
// At+Dur (instantaneous faults carry Dur 0).
type Fault struct {
	Type   faults.Type
	Target int
	At     time.Duration
	Dur    time.Duration
}

// String renders the fault the way repro artifacts and reports print it.
func (f Fault) String() string {
	if f.Dur == 0 {
		return fmt.Sprintf("%s@n%d@%s", f.Type, f.Target, f.At)
	}
	return fmt.Sprintf("%s@n%d@%s+%s", f.Type, f.Target, f.At, f.Dur)
}

// jsonFault is the serialized form: fault names and Go duration strings
// instead of raw integers, so a repro artifact reads like a schedule.
type jsonFault struct {
	Type   string `json:"type"`
	Target int    `json:"target"`
	At     string `json:"at"`
	Dur    string `json:"dur"`
}

// MarshalJSON implements json.Marshaler.
func (f Fault) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonFault{
		Type:   f.Type.String(),
		Target: f.Target,
		At:     f.At.String(),
		Dur:    f.Dur.String(),
	})
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fault
// names and malformed durations.
func (f *Fault) UnmarshalJSON(b []byte) error {
	var jf jsonFault
	if err := json.Unmarshal(b, &jf); err != nil {
		return err
	}
	t, ok := faults.TypeByName(jf.Type)
	if !ok {
		return fmt.Errorf("chaos: unknown fault type %q", jf.Type)
	}
	at, err := time.ParseDuration(jf.At)
	if err != nil {
		return fmt.Errorf("chaos: bad injection time %q: %v", jf.At, err)
	}
	dur, err := time.ParseDuration(jf.Dur)
	if err != nil {
		return fmt.Errorf("chaos: bad fault duration %q: %v", jf.Dur, err)
	}
	*f = Fault{Type: t, Target: jf.Target, At: at, Dur: dur}
	return nil
}

// Schedule is an ordered multi-fault injection plan. Faults are sorted by
// injection time (ties broken by target, then type) and may overlap or
// repeat freely — the injector defines overlapping injection as a no-op.
type Schedule struct {
	Faults []Fault `json:"faults"`
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
func sortFaults(fs []Fault) {
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
	fs := make([]Fault, 0, n)
	atSteps := int64(cfg.Window / (100 * time.Millisecond))
	if atSteps < 1 {
		atSteps = 1
	}
	durSteps := int64((maxDur-minDur)/time.Second) + 1
	for i := 0; i < n; i++ {
		f := Fault{
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
