package chaos

import (
	"fmt"

	"vivo/internal/faults"
	"vivo/internal/trace"
)

// EventFold is the chaos oracles' view of a run's event stream: one
// trace sink, passed to obs.Harness.Run, that folds each event as it arrives into
// the state every event-reading oracle and the coverage signature need.
// The state is O(nodes²) however long the run is, and a soak reads it
// live at each checkpoint. The zero value is ready to use.
type EventFold struct {
	unhealed map[faultKey]int       // open injections per (node, fault)
	evicted  map[[2]int]bool        // open (evictor, evicted) pairs
	injected map[string]trace.Event // first injection per fault name
	prev     string                 // previous bigram token
	bigrams  map[[2]string]struct{} // every bigram seen

	// The first violation of each invariant checked in event order, as
	// verdict detail ("" while none).
	orphanHeal, sendAfterEvict, admitOnCrashed string
}

type faultKey struct {
	node int
	name string
}

// Record implements trace.Sink. Only fault and membership events build
// strings; every other event updates the fold without allocating.
func (f *EventFold) Record(e trace.Event) {
	if f.bigrams == nil {
		f.unhealed = map[faultKey]int{}
		f.evicted = map[[2]int]bool{}
		f.injected = map[string]trace.Event{}
		f.bigrams = map[[2]string]struct{}{}
	}
	tok := e.Name // bigram token; fault events add the fault name
	switch e.Name {
	case trace.EvFaultInject:
		name := faultName(e.Note)
		tok = e.Name + ":" + name
		f.unhealed[faultKey{e.Node, name}]++
		if processKilling(name) {
			f.clearEvictor(e.Node)
		}
		if _, ok := f.injected[name]; !ok {
			f.injected[name] = e
		}
	case trace.EvFaultHeal:
		name := faultName(e.Note)
		tok = e.Name + ":" + name
		if k := (faultKey{e.Node, name}); f.unhealed[k] > 0 {
			f.unhealed[k]--
		} else if f.orphanHeal == "" {
			f.orphanHeal = fmt.Sprintf("heal of %s on n%d at %v without a matching injection",
				name, e.Node, e.TS)
		}
	case trace.EvMembership:
		trigger, view := parseMembershipNote(e.Note)
		for _, x := range view {
			delete(f.evicted, [2]int{e.Node, x})
		}
		switch trigger {
		case "removed":
			if e.Peer >= 0 {
				f.evicted[[2]int{e.Node, e.Peer}] = true
			}
		case "remerge", "join timeout":
			f.clearEvictor(e.Node)
		}
	case trace.EvRecv:
		if e.Peer >= 0 {
			delete(f.evicted, [2]int{e.Node, e.Peer})
		}
	case trace.EvFatal:
		f.clearEvictor(e.Node)
	case trace.EvSend, trace.EvSendBlock, trace.EvCreditStall:
		if e.Peer >= 0 && f.sendAfterEvict == "" && f.evicted[[2]int{e.Node, e.Peer}] {
			f.sendAfterEvict = fmt.Sprintf("n%d %s to n%d at %v after evicting it",
				e.Node, e.Name, e.Peer, e.TS)
		}
	case trace.EvReqAdmit:
		// A node's open node-crash injections are its crash windows.
		if f.admitOnCrashed == "" && f.unhealed[faultKey{e.Node, faults.NodeCrash.String()}] > 0 {
			f.admitOnCrashed = fmt.Sprintf("n%d admitted a request at %v while node-crashed",
				e.Node, e.TS)
		}
	}
	if f.prev != "" {
		f.bigrams[[2]string{f.prev, tok}] = struct{}{}
	}
	f.prev = tok
}

// clearEvictor closes every eviction window node y opened.
func (f *EventFold) clearEvictor(y int) {
	for k := range f.evicted {
		if k[0] == y {
			delete(f.evicted, k)
		}
	}
}
