package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"vivo/internal/faults"
)

// The ordering oracles check properties of the *sequence* of trace
// events, not just their counts: protocol steps that must not interleave
// the wrong way. EventFold folds the events in emission order as the run
// emits them, with O(1) state per node pair; Check only reads the result.

// evictSend checks "no send after eviction": once a server Y removes
// peer X from its membership view, Y must not address X again until
// something re-establishes the relationship. The fold opens a window per
// (evictor, evicted) pair on a "removed" membership event and closes it
// when:
//
//   - a later membership event on Y carries a view containing X (rejoin,
//     accepted join, remerge result, admission — any path back in);
//   - Y's view resets wholesale ("remerge" abandons the partition,
//     "join timeout" salvages whatever the policy kept);
//   - Y receives from X — the channel is back, so sends are fair game
//     (the VIA implicit rejoin admits on exactly this signal);
//   - Y's process dies (app/node crash injection or a fatal): the next
//     incarnation starts with fresh state and owes X nothing.
//
// A send (or send attempt: send-block, credit-stall) from Y to X while
// the window is open is a violation.
type evictSend struct{}

func (evictSend) Name() string { return "no-send-after-evict" }

func (evictSend) Check(o *Observation) Verdict {
	return foldVerdict(o, "no-send-after-evict", func(f *EventFold) string { return f.sendAfterEvict })
}

// processKilling lists the fault injections after which the target's
// press process is a different incarnation (so its pre-fault eviction
// state is gone).
func processKilling(name string) bool {
	switch name {
	case faults.AppCrash.String(), faults.NodeCrash.String(),
		faults.BadPtrNull.String(), faults.BadPtrOffset.String(),
		faults.BadSizeOffset.String():
		return true
	}
	return false
}

// parseMembershipNote splits a membership event note
// ("removed; view [0 2 3]") into its trigger and view. A note that does
// not carry a view (future emitters) yields a nil view.
func parseMembershipNote(note string) (trigger string, view []int) {
	trigger, rest, ok := strings.Cut(note, "; view ")
	if !ok {
		return note, nil
	}
	rest = strings.TrimPrefix(rest, "[")
	rest = strings.TrimSuffix(rest, "]")
	if rest == "" {
		return trigger, nil
	}
	for _, f := range strings.Fields(rest) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return trigger, nil
		}
		view = append(view, n)
	}
	return trigger, view
}

// crashAdmit checks "no request admitted on a crashed node": between a
// node-crash injection and its heal the node's hardware is down, so its
// server cannot have accepted a connection. The fold counts open
// node-crash injections per node (the injector's no-op inject/heal pairs
// balance at the same timestamp) and flags any req-admit inside a window.
type crashAdmit struct{}

func (crashAdmit) Name() string { return "no-admit-on-crashed" }

func (crashAdmit) Check(o *Observation) Verdict {
	return foldVerdict(o, "no-admit-on-crashed", func(f *EventFold) string { return f.admitOnCrashed })
}

// ForbidPair is the guided search's seeded-violation fixture: it flags
// any run whose trace injects *both* fault types — a conjunction rare
// enough under random draws that finding it exercises the corpus and
// crossover machinery (a schedule containing one half is interesting the
// moment it lights new bits, and crossover splices the halves together).
// Like ForbidFault it is not part of DefaultOracles.
type ForbidPair struct{ A, B faults.Type }

// Name implements Oracle.
func (f ForbidPair) Name() string {
	return "forbid-pair-" + f.A.String() + "+" + f.B.String()
}

// Check implements Oracle: it fails iff the trace shows injections of
// both types (reading the trace, not the schedule, so shrinking must
// keep one actually-injected instance of each).
func (f ForbidPair) Check(o *Observation) Verdict {
	return foldVerdict(o, f.Name(), func(ef *EventFold) string {
		_, sawA := ef.injected[f.A.String()]
		_, sawB := ef.injected[f.B.String()]
		if !sawA || !sawB {
			return ""
		}
		return fmt.Sprintf("fixture violation: both %s and %s injected", f.A, f.B)
	})
}
