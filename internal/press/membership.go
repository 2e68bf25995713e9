package press

import (
	"errors"
	"fmt"
	"sort"

	"vivo/internal/comm"
	"vivo/internal/substrate"
	"vivo/internal/trace"
)

// reconfigure removes node x from the cooperating cluster: the temporary
// recovery step of §3. announce makes this node broadcast the removal
// (used by heartbeat-based detection, where only the successor notices).
func (s *Server) reconfigure(x int, announce bool) {
	if !s.alive || x == s.id || !s.members[x] {
		return
	}
	delete(s.members, x)
	s.emitMembership("removed", x)
	s.mark(fmt.Sprintf("reconfigured: removed n%d, members now %v", x, s.Members()))
	if pc := s.conns[x]; pc != nil {
		delete(s.conns, x)
		if s.spec.EvictFarewell {
			// Fixture bug (see VersionSpec.EvictFarewell): address the
			// peer we just evicted before tearing the channel down.
			s.sendDirect(pc, msgNodeDown, wire{Node: x}, smallMsgSize)
		}
		pc.Close()
	}
	// Flush locality information for the departed node.
	for f, m := range s.dir {
		if m&(1<<uint(x)) != 0 {
			m &^= 1 << uint(x)
			if m == 0 {
				delete(s.dir, f)
			} else {
				s.dir[f] = m
			}
		}
	}
	// Re-dispatch requests that were waiting on the departed service
	// node; they will be served locally (disk) or by another cacher.
	// Key order keeps the re-dispatch deterministic.
	for _, id := range sortedKeys(s.pending) {
		p := s.pending[id]
		if p.svc == x {
			delete(s.pending, id)
			req := p.req
			s.node.CPU.Submit(s.cost.SendSmall, func() {
				if !s.alive {
					return
				}
				if req.Settled() {
					if s.inflight > 0 {
						s.inflight--
					}
					return
				}
				s.route(req)
			})
		}
	}
	s.engine.dropQueuedTo(x)
	s.det.resetGrace()
	if announce {
		s.broadcast(msgNodeDown, wire{Node: x}, smallMsgSize, s.cost.SendSmall)
	}
	// The departed peer may have been the one blocking the send path;
	// give queued traffic a chance to move again.
	s.engine.kick()
}

// ---- the directed ring (used by the heartbeat detector) ----

// successor returns the next active member after this node on the ring.
func (s *Server) successor() int {
	return s.ringNeighbor(+1)
}

// predecessor returns the member whose heartbeats we monitor.
func (s *Server) predecessor() int {
	return s.ringNeighbor(-1)
}

func (s *Server) ringNeighbor(dir int) int {
	ms := s.Members()
	if len(ms) <= 1 {
		return s.id
	}
	idx := -1
	for i, m := range ms {
		if m == s.id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return s.id
	}
	n := len(ms)
	return ms[((idx+dir)%n+n)%n]
}

// ---- rejoin protocol ----

// joinPolicy is the rejoin layer of the server: how a freshly restarted
// process re-enters a running cluster, and what its peers do with
// channels from nodes they do not (yet) count as members. The two
// implementations reproduce the paper's two protocols — [explicitJoin]
// (TCP: broadcast a join request, lowest-id member answers) and
// [implicitRejoin] (VIA: a re-established channel is the admission) —
// selected by VersionSpec.Join.
type joinPolicy interface {
	// dialed handles a successfully dialed channel during startJoin.
	dialed(s *Server, j int, pc substrate.PeerConn)
	// acceptStranger handles an inbound channel from a node that is not
	// an expected bootstrap peer.
	acceptStranger(s *Server, r int, pc substrate.PeerConn)
	// giveUp finalizes membership when the join timer expires.
	giveUp(s *Server)
}

func newJoinPolicy(j JoinProtocol) joinPolicy {
	if j == ImplicitRejoin {
		return implicitRejoin{}
	}
	return explicitJoin{}
}

// explicitJoin: the TCP-PRESS protocol. The restarted node holds every
// channel as pending and broadcasts an explicit join request that only
// the lowest-id active member may answer; unanswered, it gives up and
// serves standalone. Combined with peers that still believe the old
// incarnation is a member, this reproduces the paper's §5.3 node-crash
// quirk.
type explicitJoin struct{}

func (explicitJoin) dialed(s *Server, j int, pc substrate.PeerConn) {
	s.joinPending[j] = pc
	s.sendDirect(pc, msgJoinReq, wire{Node: s.id}, smallMsgSize)
}

func (explicitJoin) acceptStranger(s *Server, r int, pc substrate.PeerConn) {
	// Hold until the join protocol decides.
	s.joinPending[r] = pc
}

func (explicitJoin) giveUp(s *Server) {
	for _, j := range sortedKeys(s.conns) {
		s.conns[j].Close()
		delete(s.conns, j)
		delete(s.members, j)
	}
	s.members = map[int]bool{s.id: true}
	s.mark("gave up rejoin; running standalone")
}

// implicitRejoin: the VIA protocol (§3). Establishing a channel is
// re-admission — both sides immediately exchange cache summaries — so the
// join completes as soon as every reachable peer has answered the dial.
type implicitRejoin struct{}

func (implicitRejoin) dialed(s *Server, j int, pc substrate.PeerConn) {
	s.members[j] = true
	s.conns[j] = pc
	s.sendCacheSummary(j)
	s.maybeFinishJoin()
}

func (implicitRejoin) acceptStranger(s *Server, r int, pc substrate.PeerConn) {
	if s.members[r] {
		// Stale duplicate; replace the channel.
		if old := s.conns[r]; old != nil {
			old.Close()
		}
		s.conns[r] = pc
		return
	}
	// A node re-establishing its connection is re-admitted on the spot
	// and sent our caching information (§3 Reconfiguration).
	s.admit(r, pc)
}

func (implicitRejoin) giveUp(s *Server) {
	// Whatever connections were re-established form our cluster.
	s.det.resetGrace()
	s.mark(fmt.Sprintf("join finalized with members %v", s.Members()))
}

// startJoin runs the (one-shot) rejoin protocol for a freshly restarted
// process: dial everyone and let the version's joinPolicy decide what an
// answered dial means. If nothing concludes within JoinTimeout the node
// gives up per the policy.
func (s *Server) startJoin() {
	s.mark("rejoin started")
	for j := 0; j < s.cfg.Nodes; j++ {
		if j == s.id {
			continue
		}
		j := j
		s.tr.Dial(j, func(pc substrate.PeerConn, err error) {
			if !s.alive {
				if pc != nil {
					pc.Close()
				}
				return
			}
			if err != nil {
				return
			}
			pc.Bind(s.callbacks())
			s.join.dialed(s, j, pc)
		})
	}
	s.joinTimer = s.k().After(s.cfg.JoinTimeout, func() {
		if !s.alive || s.joined {
			return
		}
		s.giveUpJoin()
	})
}

// maybeFinishJoin completes an implicit rejoin as soon as every reachable
// peer re-admitted us; completion is otherwise finalized by the timeout
// (peers that never answer are simply not members).
func (s *Server) maybeFinishJoin() {
	if s.joined {
		return
	}
	if len(s.conns) == s.cfg.Nodes-1 {
		s.finishJoin()
	}
}

func (s *Server) finishJoin() {
	if s.joined {
		return
	}
	s.joined = true
	s.joinTimer.Cancel()
	s.det.resetGrace()
	s.emitMembership("rejoined", trace.NoNode)
	s.mark(fmt.Sprintf("rejoined, members %v", s.Members()))
}

func (s *Server) giveUpJoin() {
	// The paper's observed behaviour: the recovered node gives up and
	// runs with whatever membership the policy salvages until an
	// operator intervenes.
	s.joined = true
	for _, j := range sortedKeys(s.joinPending) {
		s.joinPending[j].Close()
		delete(s.joinPending, j)
	}
	s.join.giveUp(s)
	s.emitMembership("join timeout", trace.NoNode)
}

// sendDirect bypasses the engine's send path (used on join channels that
// carry no other traffic).
func (s *Server) sendDirect(pc substrate.PeerConn, kind int, w wire, size int) {
	p := s.params(kind, w, size)
	if s.interpose != nil {
		s.interpose(&p)
	}
	err := pc.Send(p)
	switch {
	case err == nil:
	case errors.Is(err, comm.ErrBadDescriptor):
		// Robust layer rejected a corrupted call; reissue clean.
		_ = pc.Send(s.params(kind, w, size))
	case errors.Is(err, comm.ErrEFAULT):
		s.failFast(err)
	}
}

// handleJoinReq implements the member side of the explicit join protocol.
func (s *Server) handleJoinReq(w wire) {
	r := w.Node
	if s.members[r] && s.conns[r] != nil {
		// We still believe the old incarnation is alive: the rejoin
		// message is disregarded (§5.3's timing problem).
		s.mark(fmt.Sprintf("disregarded join from n%d (still a member)", r))
		return
	}
	// Only the lowest-id active member answers.
	if s.id != s.Members()[0] {
		return
	}
	pc := s.joinPending[r]
	if pc == nil {
		return
	}
	s.members[r] = true
	s.conns[r] = pc
	delete(s.joinPending, r)
	s.det.resetGrace()
	s.emitMembership("accepted join", r)
	s.sendDirect(pc, msgJoinAccept, wire{Members: s.Members()}, smallMsgSize)
	s.broadcast(msgNodeUp, wire{Node: r}, smallMsgSize, s.cost.SendSmall)
	s.sendCacheSummary(r)
	s.mark(fmt.Sprintf("accepted join of n%d", r))
}

// handleJoinAccept installs the membership sent by the accepting member.
func (s *Server) handleJoinAccept(w wire) {
	if s.joined {
		return
	}
	for _, m := range w.Members {
		if m == s.id {
			continue
		}
		s.members[m] = true
		if pc := s.joinPending[m]; pc != nil {
			s.conns[m] = pc
			delete(s.joinPending, m)
		}
	}
	s.finishJoin()
	// Re-advertise whatever we cache (empty for a fresh restart, full
	// for a remerging partition).
	if s.cache.Len() > 0 {
		for _, m := range s.Members() {
			if m != s.id {
				s.sendCacheSummary(m)
			}
		}
	}
}

// handleNodeUp promotes the held channel from a newly admitted node.
func (s *Server) handleNodeUp(w wire) {
	r := w.Node
	if r == s.id || s.members[r] {
		return
	}
	pc := s.joinPending[r]
	if pc == nil {
		// The channel may not have arrived yet; remember membership,
		// the accept path will promote it.
		s.members[r] = true
		return
	}
	s.admit(r, pc)
}

// sendCacheSummary streams our cache contents to a (re)joining node in
// bounded chunks.
func (s *Server) sendCacheSummary(dst int) {
	const chunk = 4096
	var files []int
	for f, m := range s.dir {
		if m&(1<<uint(s.id)) != 0 {
			files = append(files, f)
		}
	}
	// Deterministic order for reproducibility.
	sort.Ints(files)
	for off := 0; off < len(files); off += chunk {
		end := off + chunk
		if end > len(files) {
			end = len(files)
		}
		part := files[off:end]
		s.send(dst, msgCacheSummary, wire{Files: part}, 8*len(part), s.cost.SendData)
	}
}

// ---- remerge ablation (§6.2's "rigorous membership algorithm") ----

// remergeTick periodically tries to heal a splintered cluster: a node whose
// partition minimum exceeds some missing node's id abandons its partition
// and rejoins through the standard join protocol.
func (s *Server) remergeTick() {
	if !s.alive || !s.joined || s.proc.Stopped() || s.node.Frozen {
		return
	}
	if len(s.members) >= s.cfg.Nodes {
		return
	}
	min := s.Members()[0]
	rejoin := false
	for j := 0; j < s.cfg.Nodes; j++ {
		if !s.members[j] && j < min && s.d.HW.Node(j).Up {
			rejoin = true
			break
		}
	}
	if !rejoin {
		return
	}
	s.mark("remerge: abandoning partition to rejoin lower cluster")
	for _, j := range sortedKeys(s.conns) {
		s.conns[j].Close()
		delete(s.conns, j)
		delete(s.members, j)
	}
	s.members = map[int]bool{s.id: true}
	s.joined = false
	s.emitMembership("remerge", trace.NoNode)
	s.startJoin()
}
