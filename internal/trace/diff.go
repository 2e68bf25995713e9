package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// This file is the one reader of trace files, behind cmd/tracediff and
// cmd/tracecheck: it parses a Chrome trace_event JSON file back into an
// event list, checks its structure, and localizes the first divergence
// between two runs. Byte-identical traces are the repo's
// determinism contract (TestTraceDeterministic), so when two runs that
// should match do not, the first diverging event — not a 100 MB file diff
// — is the debugging starting point.

// ParsedEvent is one event read back from a trace JSON file. Raw is the
// compacted original JSON object, the unit of comparison: the writer is
// deterministic, so two semantically identical events have identical Raw.
type ParsedEvent struct {
	Name string
	Ph   string
	// ID is the async-span correlation id ("" when absent).
	ID string
	TS float64
	// PID and TID place the event on its track; nil when absent.
	PID, TID *int
	Raw      string
}

// Meta reports whether the event is writer bookkeeping (process/thread
// naming) rather than a simulation event. Metadata placement follows
// first track appearance, so comparisons that tolerate added event kinds
// (the latency-perturbation test) filter these first.
func (e ParsedEvent) Meta() bool { return e.Ph == "M" }

// ParseJSON reads a trace_event document (as written by NewJSON) and
// returns its events in file order.
func ParseJSON(r io.Reader) ([]ParsedEvent, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("invalid trace JSON: %w", err)
	}
	out := make([]ParsedEvent, 0, len(doc.TraceEvents))
	for i, raw := range doc.TraceEvents {
		var e struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			ID   string  `json:"id"`
			TS   float64 `json:"ts"`
			PID  *int    `json:"pid"`
			TID  *int    `json:"tid"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		out = append(out, ParsedEvent{Name: e.Name, Ph: e.Ph, ID: e.ID, TS: e.TS,
			PID: e.PID, TID: e.TID, Raw: compact.String()})
	}
	return out, nil
}

// Check validates a parsed trace the way NewJSON writes one: every event
// has an instant, metadata, counter or async begin/end phase; async
// events carry their correlation id; every event names its pid and tid;
// the non-metadata events run forward in time (the simulation emits in
// virtual-time order, so a trace that violates it is corrupt); and at
// least one event is not metadata.
func Check(evs []ParsedEvent) error {
	var last float64
	n := 0
	for i, e := range evs {
		switch e.Ph {
		case "i", "M", "C":
		case "b", "e":
			if e.ID == "" {
				return fmt.Errorf("event %d (%s) is an async %q without an id", i, e.Name, e.Ph)
			}
		default:
			return fmt.Errorf("event %d has unexpected phase %q", i, e.Ph)
		}
		if e.PID == nil || e.TID == nil {
			return fmt.Errorf("event %d (%s) lacks pid/tid", i, e.Name)
		}
		if e.Meta() {
			continue
		}
		if e.TS < last {
			return fmt.Errorf("event %d (%s) goes back in time (%.3f < %.3f)", i, e.Name, e.TS, last)
		}
		last = e.TS
		n++
	}
	if n == 0 {
		return fmt.Errorf("no events besides metadata")
	}
	return nil
}

// landmarks are the event names worth orienting by when reporting a
// divergence: run windows, fault activity and membership changes segment
// a trace into phases a human can navigate to.
var landmarks = map[string]bool{
	EvRun:         true,
	EvFaultInject: true,
	EvFaultHeal:   true,
	EvMembership:  true,
}

// Divergence localizes the first difference between two traces. A nil
// *Divergence from Diff means the traces are identical.
type Divergence struct {
	// Index is the position of the first differing event (or the length
	// of the shorter trace when one is a prefix of the other).
	Index int
	// A and B are the differing events' raw JSON; empty when that side
	// is exhausted.
	A, B string
	// Landmark is the last event before Index that both traces share and
	// whose name is a navigation landmark (run, fault-inject, fault-heal,
	// membership); LandmarkIndex is its position, -1 when there is none.
	Landmark      string
	LandmarkIndex int
}

// Diff compares two parsed traces event-by-event and returns the first
// divergence, or nil if they are identical.
func Diff(a, b []ParsedEvent) *Divergence {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	idx := -1
	for i := 0; i < n; i++ {
		if a[i].Raw != b[i].Raw {
			idx = i
			break
		}
	}
	if idx == -1 {
		if len(a) == len(b) {
			return nil
		}
		idx = n
	}
	d := &Divergence{Index: idx, LandmarkIndex: -1}
	if idx < len(a) {
		d.A = a[idx].Raw
	}
	if idx < len(b) {
		d.B = b[idx].Raw
	}
	for i := idx - 1; i >= 0; i-- {
		if landmarks[a[i].Name] {
			d.Landmark = a[i].Raw
			d.LandmarkIndex = i
			break
		}
	}
	return d
}

// String renders the divergence report printed by cmd/tracediff.
func (d *Divergence) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "first divergence at event %d:\n", d.Index)
	if d.A == "" {
		fmt.Fprintf(&b, "  A: <trace ends after %d events>\n", d.Index)
	} else {
		fmt.Fprintf(&b, "  A: %s\n", d.A)
	}
	if d.B == "" {
		fmt.Fprintf(&b, "  B: <trace ends after %d events>\n", d.Index)
	} else {
		fmt.Fprintf(&b, "  B: %s\n", d.B)
	}
	if d.LandmarkIndex >= 0 {
		fmt.Fprintf(&b, "nearest shared landmark, %d event(s) earlier at %d:\n  %s\n",
			d.Index-d.LandmarkIndex, d.LandmarkIndex, d.Landmark)
	} else {
		fmt.Fprintf(&b, "no shared landmark precedes the divergence\n")
	}
	return b.String()
}
