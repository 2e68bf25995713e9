package trace

// Recorder is an in-memory sink: it appends every event to a slice, in
// emission order, for queries from tests and metrics post-processing.
// Unlike the JSON writer it keeps the typed Event values, so callers can
// count and search without parsing anything back.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record implements Sink.
func (r *Recorder) Record(e Event) { r.events = append(r.events, e) }

// Events returns the recorded events in emission order. The slice is the
// recorder's own backing store — callers must not mutate it.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Reset discards all recorded events, keeping the capacity.
func (r *Recorder) Reset() { r.events = r.events[:0] }

// Count returns how many events carry the given name.
func (r *Recorder) Count(name string) int {
	n := 0
	for _, e := range r.events {
		if e.Name == name {
			n++
		}
	}
	return n
}

// First returns the earliest event with the given name and true, or a
// zero Event and false if none was recorded. Emission order is time
// order (the kernel is monotonic), so this is also the minimum-TS match.
func (r *Recorder) First(name string) (Event, bool) {
	for _, e := range r.events {
		if e.Name == name {
			return e, true
		}
	}
	return Event{}, false
}
