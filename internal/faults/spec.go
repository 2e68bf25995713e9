package faults

import (
	"encoding/json"
	"fmt"
	"time"
)

// Spec is one scheduled fault: inject Type into node Target at virtual
// time At; for duration faults the component is repaired at At+Dur
// (instantaneous faults carry Dur 0). It is the unit of every fault
// schedule — a harness run's, a chaos schedule's and a repro artifact's.
type Spec struct {
	Type   Type
	Target int
	At     time.Duration
	Dur    time.Duration
}

// String renders the spec the way repro artifacts and reports print it.
func (f Spec) String() string {
	if f.Dur == 0 {
		return fmt.Sprintf("%s@n%d@%s", f.Type, f.Target, f.At)
	}
	return fmt.Sprintf("%s@n%d@%s+%s", f.Type, f.Target, f.At, f.Dur)
}

// jsonSpec is the serialized form: fault names and Go duration strings
// instead of raw integers, so a repro artifact reads like a schedule.
type jsonSpec struct {
	Type   string `json:"type"`
	Target int    `json:"target"`
	At     string `json:"at"`
	Dur    string `json:"dur"`
}

// MarshalJSON implements json.Marshaler.
func (f Spec) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonSpec{
		Type:   f.Type.String(),
		Target: f.Target,
		At:     f.At.String(),
		Dur:    f.Dur.String(),
	})
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fault
// names and malformed durations.
func (f *Spec) UnmarshalJSON(b []byte) error {
	var js jsonSpec
	if err := json.Unmarshal(b, &js); err != nil {
		return err
	}
	t, ok := TypeByName(js.Type)
	if !ok {
		return fmt.Errorf("faults: unknown fault type %q", js.Type)
	}
	at, err := time.ParseDuration(js.At)
	if err != nil {
		return fmt.Errorf("faults: bad injection time %q: %v", js.At, err)
	}
	dur, err := time.ParseDuration(js.Dur)
	if err != nil {
		return fmt.Errorf("faults: bad fault duration %q: %v", js.Dur, err)
	}
	*f = Spec{Type: t, Target: js.Target, At: at, Dur: dur}
	return nil
}
