package chaos

import (
	"testing"
	"time"

	"vivo/internal/trace"
)

var _ trace.Sink = (*EventFold)(nil)

// Once warm, the fold keeps up with the hot event kinds — sends,
// receives, admissions and request spans — without allocating, even
// while an eviction window and a crash window are open.
func TestEventFoldRecordDoesNotAllocate(t *testing.T) {
	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }
	f := &EventFold{}
	f.Record(evict(sec(1), 0, 2))
	f.Record(inject(sec(2), 1, "node-crash"))
	span := func(ph byte) trace.Event {
		return trace.Event{TS: sec(3), Cat: trace.Request, Name: trace.EvRequest, Ph: ph, ID: 7, Node: 0, Peer: trace.NoNode}
	}
	hot := []trace.Event{
		span(trace.PhBegin),
		send(sec(3), 0, 1), recv(sec(3), 1, 0),
		send(sec(3), 0, 2), // on the open (0, 2) eviction window
		admitEv(sec(3), 1), // inside n1's crash window
		admitEv(sec(3), 2),
		span(trace.PhEnd),
	}
	cycle := func() {
		for _, e := range hot {
			f.Record(e)
		}
	}
	cycle() // warm the bigram set
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("folding %d hot events allocates %.1f times", len(hot), allocs)
	}
	if f.sendAfterEvict == "" || f.admitOnCrashed == "" {
		t.Fatal("hot events did not reach the fold's violation state")
	}
}
