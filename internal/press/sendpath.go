package press

import (
	"errors"

	"vivo/internal/comm"
	"vivo/internal/trace"
)

// sendEngine is the send-path/flow-control layer of the server: it owns
// every message queued between the application and the substrate and
// decides what happens when a channel pushes back. The two
// implementations model the paper's two flow-control worlds —
// [blockingSends] for opaque kernel buffers (TCP), [creditSends] for
// library-visible credits (VIA) — and are selected by
// VersionSpec.FlowControl.
type sendEngine interface {
	// transmitOrQueue posts one message, queueing per the engine's
	// policy if the channel pushes back.
	transmitOrQueue(dst int, p comm.SendParams)
	// onWritable reacts to the substrate's writable signal for dst.
	onWritable(dst int)
	// kick re-tries queued traffic after a membership change unblocked
	// the path (no-op where pushback never blocks unrelated traffic).
	kick()
	// dropQueuedTo discards messages queued for a removed peer.
	dropQueuedTo(dst int)
	// reset clears all queues and releases any blocked CPU on process
	// teardown.
	reset()
}

func newSendEngine(s *Server, fc FlowControl) sendEngine {
	if fc == UserLevelCredits {
		return &creditSends{s: s, peerQ: make(map[int][]outMsg)}
	}
	return &blockingSends{s: s}
}

// ---- blockingSends: opaque kernel socket buffers (TCP) ----

// blockingSends models the kernel-buffered send path. The buffers are
// opaque: when one fills, the single send path stalls head-of-line and
// eventually blocks the main loop — the stall cascade of §5.
type blockingSends struct {
	s       *Server
	outQ    []outMsg
	blocked bool
}

func (e *blockingSends) transmitOrQueue(dst int, p comm.SendParams) {
	if e.blocked {
		e.outQ = append(e.outQ, outMsg{dst: dst, params: p})
		e.s.emitDepth(trace.EvOutQ, len(e.outQ))
		return
	}
	e.trySend(outMsg{dst: dst, params: p})
}

// trySend attempts one send; on flow-control pushback it blocks the main
// loop (returns false).
func (e *blockingSends) trySend(m outMsg) bool {
	s := e.s
	pc := s.conns[m.dst]
	if pc == nil || !pc.Established() {
		return true // peer gone; drop, reconfiguration handles the rest
	}
	p := m.params
	if s.interpose != nil {
		s.interpose(&p)
	}
	err := pc.Send(p)
	switch {
	case err == nil:
		return true
	case errors.Is(err, comm.ErrWouldBlock):
		e.outQ = append([]outMsg{m}, e.outQ...)
		s.emitDepth(trace.EvOutQ, len(e.outQ))
		if !e.blocked {
			e.blocked = true
			s.node.CPU.Block()
			s.emit(trace.Press, trace.EvLoopBlock, m.dst, int64(len(e.outQ)), "")
		}
		return false
	case errors.Is(err, comm.ErrBadDescriptor):
		// §7 robust layer: the corrupted call was rejected up front
		// and the channel is intact, so the server simply reissues
		// the send with its (good) original parameters.
		if !m.retried {
			m.retried = true
			return e.trySend(m)
		}
		return true
	case errors.Is(err, comm.ErrEFAULT):
		// Synchronous kernel rejection of a bad pointer: PRESS
		// fail-fasts on the unexpected errno.
		s.failFast(err)
		return true
	default: // ErrBroken and friends: drop, break callback reconfigures
		return true
	}
}

func (e *blockingSends) onWritable(int) { e.drainOut() }

func (e *blockingSends) kick() { e.drainOut() }

func (e *blockingSends) drainOut() {
	popped := false
	for len(e.outQ) > 0 {
		m := e.outQ[0]
		e.outQ = e.outQ[1:]
		popped = true
		if !e.trySend(m) {
			return // re-blocked (trySend re-queued and re-sampled the depth)
		}
		if !e.s.alive {
			return
		}
	}
	if popped {
		e.s.emitDepth(trace.EvOutQ, 0)
	}
	if e.blocked {
		e.blocked = false
		e.s.node.CPU.Unblock()
		e.s.emit(trace.Press, trace.EvLoopUnblock, trace.NoNode, 0, "")
	}
}

func (e *blockingSends) dropQueuedTo(dst int) {
	kept := e.outQ[:0]
	for _, m := range e.outQ {
		if m.dst != dst {
			kept = append(kept, m)
		}
	}
	if len(kept) != len(e.outQ) {
		e.s.emitDepth(trace.EvOutQ, len(kept))
	}
	e.outQ = kept
}

func (e *blockingSends) reset() {
	if e.blocked {
		e.blocked = false
		e.s.node.CPU.Unblock()
	}
	e.outQ = nil
}

// ---- creditSends: user-level credit flow control (VIA) ----

// peerQCap bounds the per-peer deferral queue; overflow is dropped (the
// client request behind it times out).
const peerQCap = 1024

// creditSends models flow control living in the communication library
// where the server can see it: a peer that stops returning credits only
// gets its own bounded queue, the main loop keeps serving everyone else.
// This user-level-visibility advantage is one reason the VIA versions
// ride out peer stalls better than TCP.
type creditSends struct {
	s     *Server
	peerQ map[int][]outMsg
}

func (e *creditSends) transmitOrQueue(dst int, p comm.SendParams) {
	m := outMsg{dst: dst, params: p}
	if len(e.peerQ[dst]) > 0 {
		e.pushPeer(m) // preserve per-peer ordering
		return
	}
	e.trySend(m)
}

func (e *creditSends) pushPeer(m outMsg) {
	if len(e.peerQ[m.dst]) >= peerQCap {
		return // overflow: shed the message, the request times out
	}
	e.peerQ[m.dst] = append(e.peerQ[m.dst], m)
	e.s.emit(trace.Press, trace.EvPeerDefer, m.dst, int64(len(e.peerQ[m.dst])), "")
	e.s.emitDepth(trace.EvPeerQ, e.total())
}

// total is the deferred backlog across all peers (the EvPeerQ counter
// series; summing a map is order-independent, so tracing stays
// deterministic).
func (e *creditSends) total() int {
	n := 0
	for _, q := range e.peerQ {
		n += len(q)
	}
	return n
}

// trySend attempts one send on a credit-managed channel; pushback only
// defers traffic for that one peer. Returns false if the message was
// deferred.
func (e *creditSends) trySend(m outMsg) bool {
	s := e.s
	pc := s.conns[m.dst]
	if pc == nil || !pc.Established() {
		return true // peer gone; drop
	}
	p := m.params
	if s.interpose != nil {
		s.interpose(&p)
	}
	err := pc.Send(p)
	switch {
	case err == nil:
		return true
	case errors.Is(err, comm.ErrWouldBlock):
		e.pushPeer(m)
		return false
	case errors.Is(err, comm.ErrBadDescriptor):
		if !m.retried {
			m.retried = true
			return e.trySend(m)
		}
		return true
	default:
		return true // broken channels are handled by onBreak
	}
}

func (e *creditSends) onWritable(dst int) { e.drainPeer(dst) }

// kick is a no-op: pushback never blocks traffic to other peers, so a
// membership change frees nothing.
func (e *creditSends) kick() {}

func (e *creditSends) drainPeer(dst int) {
	s := e.s
	if len(e.peerQ[dst]) > 0 {
		defer func() { e.s.emitDepth(trace.EvPeerQ, e.total()) }()
	}
	for len(e.peerQ[dst]) > 0 {
		q := e.peerQ[dst]
		m := q[0]
		e.peerQ[dst] = q[1:]
		pc := s.conns[dst]
		if pc == nil || !pc.Established() {
			delete(e.peerQ, dst)
			return
		}
		p := m.params
		if s.interpose != nil {
			s.interpose(&p)
		}
		err := pc.Send(p)
		if errors.Is(err, comm.ErrWouldBlock) {
			// Put it back and wait for the next writable signal.
			e.peerQ[dst] = append([]outMsg{m}, e.peerQ[dst]...)
			return
		}
		if errors.Is(err, comm.ErrBadDescriptor) && !m.retried {
			m.retried = true
			e.peerQ[dst] = append([]outMsg{m}, e.peerQ[dst]...)
		}
		if !s.alive {
			return
		}
	}
	delete(e.peerQ, dst)
}

func (e *creditSends) dropQueuedTo(dst int) {
	if len(e.peerQ[dst]) > 0 {
		delete(e.peerQ, dst)
		e.s.emitDepth(trace.EvPeerQ, e.total())
		return
	}
	delete(e.peerQ, dst)
}

func (e *creditSends) reset() { e.peerQ = make(map[int][]outMsg) }
