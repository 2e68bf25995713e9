package press

import (
	"fmt"
	"time"

	"vivo/internal/sim"
	"vivo/internal/substrate"
	"vivo/internal/trace"
)

// detector is the failure-detection layer of the server. Every version
// shares the universal path — a broken substrate channel to a member
// triggers reconfiguration (see onBreak below) — and a detector optionally
// adds proactive probing on top. [noDetector] adds nothing;
// [ringHeartbeat] is TCP-PRESS-HB's directed-ring heartbeat protocol.
// VersionSpec.Heartbeats selects between them.
type detector interface {
	// start arms the detector for a fresh server incarnation.
	start()
	// stop disarms it on teardown.
	stop()
	// noteHeartbeat records a heartbeat received from a peer.
	noteHeartbeat(from int)
	// resetGrace restarts the silence clock after membership changes,
	// so a new predecessor is not blamed for its predecessor's silence.
	resetGrace()
}

func newDetector(s *Server, heartbeats bool) detector {
	if heartbeats {
		return &ringHeartbeat{s: s, lastHB: make(map[int]sim.Time)}
	}
	return noDetector{}
}

// noDetector: failure detection by broken connections only (every version
// except TCP-PRESS-HB; the VIA substrates make this fast by fail-stopping
// channels in about a second, TCP takes minutes).
type noDetector struct{}

func (noDetector) start()            {}
func (noDetector) stop()             {}
func (noDetector) noteHeartbeat(int) {}
func (noDetector) resetGrace()       {}

// hbPeriod is the interval between heartbeats (TCP-PRESS-HB; the paper's
// 5 s).
const hbPeriod = 5 * time.Second

// ringHeartbeat implements the directed-ring heartbeat protocol: each
// node heartbeats its ring successor and declares its predecessor dead
// after Config.HBTimeout of silence (the paper's 3 missed beats at 5 s =
// 15 s).
//
// In PRESS the heartbeat machinery runs independently of the main
// coordinating loop — if it went through the (blockable) main loop, a
// single stalled peer would silence every node's heartbeats and fragment
// the whole cluster, which is not what the paper observes. It still
// respects SIGSTOP (thread stopped with the process) and node freezes.
type ringHeartbeat struct {
	s       *Server
	hbSend  *sim.Ticker
	hbCheck *sim.Ticker
	lastHB  map[int]sim.Time
}

func (h *ringHeartbeat) start() {
	s := h.s
	h.resetGrace()
	h.hbSend = sim.NewTicker(s.k(), hbPeriod, func() {
		if !s.alive || s.proc.Stopped() || s.node.Frozen {
			return
		}
		succ := s.successor()
		if succ == s.id {
			return
		}
		if pc := s.conns[succ]; pc != nil && pc.Established() {
			// Direct send, bypassing the main loop and its queue;
			// a full channel just means this heartbeat is lost.
			err := pc.Send(s.params(msgHeartbeat, wire{}, smallMsgSize))
			_ = err
		}
	})
	h.hbCheck = sim.NewTicker(s.k(), hbPeriod, func() {
		if !s.alive || s.proc.Stopped() || s.node.Frozen {
			return
		}
		pred := s.predecessor()
		if pred == s.id {
			return
		}
		last, seen := h.lastHB[pred]
		if !seen {
			h.lastHB[pred] = s.k().Now()
			return
		}
		if s.k().Now()-last > s.cfg.HBTimeout {
			// Three missed heartbeats: declare the predecessor
			// failed and tell the others.
			s.emit(trace.Press, trace.EvHeartbeatMiss, pred, int64(s.k().Now()-last), "")
			s.mark(fmt.Sprintf("heartbeat timeout for n%d", pred))
			s.reconfigure(pred, true)
		}
	})
	h.hbSend.Start()
	h.hbCheck.Start()
}

func (h *ringHeartbeat) stop() {
	if h.hbSend != nil {
		h.hbSend.Stop()
	}
	if h.hbCheck != nil {
		h.hbCheck.Stop()
	}
}

func (h *ringHeartbeat) noteHeartbeat(from int) {
	h.lastHB[from] = h.s.k().Now()
}

func (h *ringHeartbeat) resetGrace() {
	h.lastHB[h.s.predecessor()] = h.s.k().Now()
}

// ---- the universal failure-reaction path (all versions) ----

func (s *Server) onBreak(pc substrate.PeerConn, err error) {
	if !s.alive {
		return
	}
	if s.proc.Stopped() {
		s.deferred = append(s.deferred, func() { s.onBreak(pc, err) })
		return
	}
	r := pc.Remote()
	if s.conns[r] == pc {
		// A broken connection to a member triggers reconfiguration —
		// the universal failure-detection path of all PRESS versions.
		s.mark(fmt.Sprintf("conn to n%d broke", r))
		s.reconfigure(r, false)
		return
	}
	if s.joinPending[r] == pc {
		delete(s.joinPending, r)
	}
}

func (s *Server) onFatal(pc substrate.PeerConn, err error) {
	if !s.alive {
		return
	}
	// Byte-stream desync or descriptor error completion: PRESS is
	// fail-fast about communication-layer corruption.
	s.failFast(err)
}
