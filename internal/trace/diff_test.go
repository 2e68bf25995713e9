package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func renderJSON(t *testing.T, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewJSON(&buf)
	for _, e := range evs {
		w.Record(e)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// TestJSONSpanAndCounter checks that the new phases render as valid
// trace_event records: async b/e pairs share an id, counters always carry
// a value (including zero), and the default instant path is untouched.
func TestJSONSpanAndCounter(t *testing.T) {
	evs := []Event{
		{TS: 0, Cat: Request, Name: EvRequest, Node: 0, Peer: NoNode, Arg: 7, Ph: PhBegin, ID: 42},
		{TS: 5 * time.Microsecond, Cat: Press, Name: EvOutQ, Node: 0, Peer: NoNode, Arg: 3, Ph: PhCounter},
		{TS: 6 * time.Microsecond, Cat: Press, Name: EvOutQ, Node: 0, Peer: NoNode, Arg: 0, Ph: PhCounter},
		{TS: 9 * time.Microsecond, Cat: Request, Name: EvForwardServe, Node: 2, Peer: 0, Ph: PhBegin, ID: 42},
		{TS: 12 * time.Microsecond, Cat: Request, Name: EvForwardServe, Node: 2, Peer: 0, Ph: PhEnd, ID: 42},
		{TS: 20 * time.Microsecond, Cat: Request, Name: EvRequest, Node: 0, Peer: NoNode, Ph: PhEnd, ID: 42, Note: "served"},
	}
	out := renderJSON(t, evs)

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			ID   string         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	var spans, counters int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "b", "e":
			spans++
			if e.ID != "0x2a" {
				t.Errorf("span %s has id %q, want 0x2a", e.Name, e.ID)
			}
		case "C":
			counters++
			if _, ok := e.Args["value"]; !ok {
				t.Errorf("counter %s lacks a value: %v", e.Name, e.Args)
			}
		}
	}
	if spans != 4 || counters != 2 {
		t.Fatalf("got %d spans and %d counters, want 4 and 2", spans, counters)
	}
	// The zero-valued counter sample must survive: a queue draining to
	// empty is a real data point.
	if !bytes.Contains(out, []byte(`"args":{"value":0}`)) {
		t.Error("zero counter sample dropped")
	}
}

// TestDiffIdentical pins the no-divergence path, including through a
// parse round-trip.
func TestDiffIdentical(t *testing.T) {
	out := renderJSON(t, sample())
	a, err := ParseJSON(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseJSON(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(a, b); d != nil {
		t.Fatalf("identical traces diverge: %v", d)
	}
}

// TestDiffDivergence checks that Diff finds the first differing event and
// the nearest shared landmark before it.
func TestDiffDivergence(t *testing.T) {
	base := sample() // index 3 is a fault-inject landmark
	mod := sample()
	mod[4].Note = "break: view [0 1]" // diverge after the landmark

	a, _ := ParseJSON(bytes.NewReader(renderJSON(t, base)))
	b, _ := ParseJSON(bytes.NewReader(renderJSON(t, mod)))
	d := Diff(a, b)
	if d == nil {
		t.Fatal("modified trace reported identical")
	}
	if a[d.Index].Name != EvMembership {
		t.Fatalf("divergence at %q (index %d), want the membership event", a[d.Index].Name, d.Index)
	}
	if d.LandmarkIndex < 0 || a[d.LandmarkIndex].Name != EvFaultInject {
		t.Fatalf("landmark = %q at %d, want the fault-inject", d.Landmark, d.LandmarkIndex)
	}
	if d.A == d.B || d.A == "" || d.B == "" {
		t.Fatalf("divergence events not both reported: A=%q B=%q", d.A, d.B)
	}
	if s := d.String(); s == "" {
		t.Fatal("empty divergence report")
	}
}

// TestDiffPrefix checks the one-trace-is-a-prefix case: the divergence
// index is the shorter length and the exhausted side is empty.
func TestDiffPrefix(t *testing.T) {
	full, _ := ParseJSON(bytes.NewReader(renderJSON(t, sample())))
	short := full[:len(full)-1]
	d := Diff(full, short)
	if d == nil || d.Index != len(short) {
		t.Fatalf("prefix divergence = %+v, want index %d", d, len(short))
	}
	if d.B != "" || d.A == "" {
		t.Fatalf("exhausted side not reported: A=%q B=%q", d.A, d.B)
	}
}

// TestCheck accepts what NewJSON writes and rejects each malformation
// tracecheck guards against.
func TestCheck(t *testing.T) {
	good := `{"name":"process_name","ph":"M","pid":0,"tid":0},
		{"name":"a","ph":"i","ts":1,"pid":0,"tid":1},
		{"name":"r","ph":"b","id":"0x1","ts":2,"pid":0,"tid":4},
		{"name":"q","ph":"C","ts":2,"pid":0,"tid":1},
		{"name":"r","ph":"e","id":"0x1","ts":3,"pid":0,"tid":4}`
	parse := func(events string) []ParsedEvent {
		t.Helper()
		evs, err := ParseJSON(strings.NewReader(`{"traceEvents":[` + events + `]}`))
		if err != nil {
			t.Fatalf("ParseJSON(%s): %v", events, err)
		}
		return evs
	}
	if err := Check(parse(good)); err != nil {
		t.Fatalf("hand-written trace rejected: %v", err)
	}
	written, err := ParseJSON(bytes.NewReader(renderJSON(t, sample())))
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(written); err != nil {
		t.Fatalf("NewJSON output rejected: %v", err)
	}
	for _, tc := range []struct{ name, events, want string }{
		{"empty", ``, "no events besides metadata"},
		{"metadata only", `{"name":"process_name","ph":"M","pid":0,"tid":0}`, "no events besides metadata"},
		{"unknown phase", `{"name":"a","ph":"X","ts":1,"pid":0,"tid":0}`, "unexpected phase"},
		{"span without id", `{"name":"r","ph":"b","ts":1,"pid":0,"tid":0}`, "without an id"},
		{"no pid", `{"name":"a","ph":"i","ts":1,"tid":0}`, "lacks pid/tid"},
		{"no tid", `{"name":"a","ph":"i","ts":1,"pid":0}`, "lacks pid/tid"},
		{"back in time", `{"name":"a","ph":"i","ts":2,"pid":0,"tid":0},{"name":"b","ph":"i","ts":1,"pid":0,"tid":0}`, "goes back in time"},
	} {
		err := Check(parse(tc.events))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzParseJSON feeds arbitrary bytes to the trace reader. It must never
// panic, and whatever it accepts must read back unchanged when its events'
// raw JSON is written out again; Check must judge the result without
// panicking.
func FuzzParseJSON(f *testing.F) {
	var buf bytes.Buffer
	w := NewJSON(&buf)
	for _, e := range sample() {
		w.Record(e)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"traceEvents":[{"name":"r","ph":"b","id":"0x1","ts":1.5,"pid":0,"tid":4}]}`))
	f.Add([]byte(`{"traceEvents":null}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		evs, err := ParseJSON(bytes.NewReader(b))
		if err != nil {
			return
		}
		_ = Check(evs)
		raws := make([]string, len(evs))
		for i, e := range evs {
			raws[i] = e.Raw
		}
		doc := `{"traceEvents":[` + strings.Join(raws, ",") + `]}`
		back, err := ParseJSON(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%q parsed, but its events written out do not: %v", b, err)
		}
		if !reflect.DeepEqual(evs, back) {
			t.Fatalf("%q: events changed on a round trip:\n%+v\n%+v", b, evs, back)
		}
	})
}
