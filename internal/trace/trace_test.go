package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sample() []Event {
	return []Event{
		{TS: 0, Cat: Sim, Name: EvRun, Node: NoNode, Peer: NoNode, Arg: int64(time.Minute)},
		{TS: 10 * time.Microsecond, Cat: Substrate, Name: EvSend, Node: 0, Peer: 1, Arg: 4096},
		{TS: 17*time.Microsecond + 500*time.Nanosecond, Cat: Substrate, Name: EvRecv, Node: 1, Peer: 0, Arg: 4096},
		{TS: time.Second, Cat: Fault, Name: EvFaultInject, Node: 3, Peer: NoNode, Note: `link-down "quoted"`},
		{TS: 2 * time.Second, Cat: Press, Name: EvMembership, Node: 0, Peer: NoNode, Note: "break: view [0 1 2]"},
	}
}

// TestNilTracer pins the disabled state: a nil tracer reports disabled
// and absorbs emissions without panicking.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(Event{Name: EvSend}) // must not panic
	if got := New(nil); got != nil {
		t.Fatalf("New(nil) = %v, want nil", got)
	}
}

func TestTracerEmitOrder(t *testing.T) {
	rec := NewRecorder()
	tr := New(rec)
	if !tr.Enabled() {
		t.Fatal("tracer with sink reports disabled")
	}
	for _, e := range sample() {
		tr.Emit(e)
	}
	got := rec.Events()
	want := sample()
	if len(got) != len(want) {
		t.Fatalf("recorded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRecorderQueries(t *testing.T) {
	rec := NewRecorder()
	for _, e := range sample() {
		rec.Record(e)
	}
	if n := rec.Len(); n != 5 {
		t.Fatalf("Len = %d, want 5", n)
	}
	if n := rec.Count(EvSend); n != 1 {
		t.Errorf("Count(send) = %d, want 1", n)
	}
	first, ok := rec.First(EvFaultInject)
	if !ok || first.Node != 3 {
		t.Errorf("First(fault-inject) = %+v, %v", first, ok)
	}
	if _, ok := rec.First("no-such-event"); ok {
		t.Error("First found a nonexistent event")
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Error("Reset left events behind")
	}
}

// TestJSONValid checks that the writer produces a parseable trace_event
// document with the expected records, timestamps in fractional
// microseconds, and track metadata for each (process, category).
func TestJSONValid(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSON(&buf)
	for _, e := range sample() {
		w.Record(e)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}

	var inst, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "i":
			inst++
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if inst != len(sample()) {
		t.Errorf("%d instant events, want %d", inst, len(sample()))
	}
	// 4 distinct pids (cluster, 0, 1, 3), each with process_name plus one
	// thread_name per category seen: cluster{sim}, 0{substrate,press},
	// 1{substrate}, 3{fault} -> 4 + 5 metadata records.
	if meta != 9 {
		t.Errorf("%d metadata events, want 9", meta)
	}

	// Spot-check the fractional-microsecond timestamp (17.5 us event).
	found := false
	for _, e := range doc.TraceEvents {
		if e.Name == EvRecv {
			found = true
			if e.TS != 17.5 {
				t.Errorf("recv ts = %v, want 17.5", e.TS)
			}
			if e.Cat != "substrate" || e.PID != 1 {
				t.Errorf("recv cat/pid = %s/%d", e.Cat, e.PID)
			}
			if peer, ok := e.Args["peer"].(float64); !ok || peer != 0 {
				t.Errorf("recv args = %v", e.Args)
			}
		}
		if e.Name == EvFaultInject {
			if note, _ := e.Args["note"].(string); note != `link-down "quoted"` {
				t.Errorf("note round-trip = %q", note)
			}
		}
	}
	if !found {
		t.Error("recv event missing from output")
	}

	if !strings.Contains(buf.String(), `"name":"cluster"`) {
		t.Error("NoNode events not named as cluster process")
	}
}

// TestJSONDeterministic pins byte-identical output for an identical
// event stream — the property TestTraceDeterministic relies on
// end-to-end.
func TestJSONDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		w := NewJSON(&buf)
		for _, e := range sample() {
			w.Record(e)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return buf.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Fatal("identical event streams produced different bytes")
	}
}

// TestJSONFlush checks that Close flushes buffered output to the
// underlying writer and leaves the writer itself open.
func TestJSONFlush(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSON(&buf)
	w.Record(Event{Cat: Sim, Name: EvRun, Node: NoNode, Peer: NoNode})
	// Small output sits in the bufio layer until Close.
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !strings.HasSuffix(buf.String(), "]}\n") {
		t.Fatalf("output not terminated: %q", buf.String())
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("flushed output invalid: %s", buf.String())
	}
}
