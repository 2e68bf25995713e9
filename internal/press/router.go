package press

import (
	"vivo/internal/metrics"
	"vivo/internal/trace"
	"vivo/internal/workload"
)

// This file is the request router/cache layer of the server: accepting
// client requests, the locality-conscious routing decision (local cache
// hit, forward to the least-loaded cacher, or home-node disk fetch),
// cooperative-cache directory maintenance, and the forwarded-request
// bookkeeping. It is identical across versions up to the cost model —
// the readCost the server precomputes from VersionSpec.ZeroCopy is the
// only place a version difference shows here.

// acceptRequest is called by the deployment when the kernel accepts a
// client connection for this process.
func (s *Server) acceptRequest(r *workload.Request) {
	t := s.newTask(opAdmit)
	t.r = r
	t.submit(s.cost.ClientHandle)
}

func (s *Server) route(r *workload.Request) {
	f := r.File
	if s.cache.Touch(f) {
		t := s.newTask(opHit)
		t.r = r
		t.submit(s.readCost)
		return
	}
	if svc, ok := s.pickService(f); ok {
		s.forward(r, svc)
		return
	}
	// Nobody caches it: the content-based distribution assigns every
	// file a home node; the home fetches from its disk and starts
	// caching, so locality stays stable across the cluster.
	if home := f % s.cfg.Nodes; home != s.id && s.members[home] {
		s.forward(r, home)
		return
	}
	// We are the home (or the home is down): fetch from the local disk
	// and start caching.
	t := s.newTask(opFetch)
	t.r = r
	s.disk().Read(t.run)
}

// forward dispatches a client request to a service node.
func (s *Server) forward(r *workload.Request, svc int) {
	s.nextReqID++
	id := s.nextReqID
	s.pending[id] = pendingFwd{req: r, svc: svc}
	s.send(svc, msgForward, wire{ReqID: id, GID: r.ID, File: r.File}, smallMsgSize, s.cost.SendSmall)
}

// pickService returns the least-loaded member caching f.
func (s *Server) pickService(f int) (int, bool) {
	mask := s.dirMask(f)
	best, bestLoad, found := 0, 0, false
	for n := 0; n < s.cfg.Nodes; n++ {
		if n == s.id || mask&(1<<uint(n)) == 0 || !s.members[n] {
			continue
		}
		if !found || s.loads[n] < bestLoad {
			best, bestLoad, found = n, s.loads[n], true
		}
	}
	return best, found
}

func (s *Server) finish(r *workload.Request) {
	if !r.Settled() {
		s.emitReq(trace.EvReqServe, r.ID, int64(r.File), "")
	}
	r.Complete()
	if s.inflight > 0 {
		s.inflight--
	}
}

// failReq settles r as dropped and traces the drop (note must be a
// static string naming the reason). Settled requests pass through
// untraced — the client already recorded its own outcome.
func (s *Server) failReq(r *workload.Request, o metrics.Outcome, note string) {
	if !r.Settled() {
		s.emitReq(trace.EvReqDrop, r.ID, int64(r.File), note)
	}
	r.Fail(o)
}

func (s *Server) insertFile(f int) {
	evicted, ok := s.cache.Insert(f)
	for _, ev := range evicted {
		s.dirRemove(ev, s.id)
		s.broadcast(msgCacheEvict, wire{File: ev}, smallMsgSize, s.cost.SendSmall)
	}
	if ok {
		s.dirAdd(f, s.id)
		s.broadcast(msgCacheAdd, wire{File: f}, smallMsgSize, s.cost.SendSmall)
	}
}

// handleForward serves a request forwarded by an initial node. When
// tracing, the service work is bracketed by a forward-serve span under
// the request's global id, nesting inside the client's request span in
// the per-request flame (a span left open means this incarnation died
// mid-service).
func (s *Server) handleForward(w wire) {
	s.emitSpan(trace.PhBegin, trace.EvForwardServe, w.From, w.GID, int64(w.File))
	if s.cache.Touch(w.File) {
		t := s.newTask(opServe)
		t.w = w
		t.submit(s.readCost)
		return
	}
	// Directory was stale: serve from disk and start caching here.
	t := s.newTask(opServeFetch)
	t.w = w
	s.disk().Read(t.run)
}

// reply answers the forwarded request w with its file.
func (s *Server) reply(w wire) {
	s.emitSpan(trace.PhEnd, trace.EvForwardServe, w.From, w.GID, 0)
	s.send(w.From, msgFileData, wire{ReqID: w.ReqID, GID: w.GID},
		int(s.cfg.FileSize), s.cost.SendData)
}

// dirMask returns the nodes caching file.
func (s *Server) dirMask(file int) uint8 {
	if file < len(s.dir) {
		return s.dir[file]
	}
	return 0
}

// dirAdd records that node caches file, growing the directory for ids
// past its preset size.
func (s *Server) dirAdd(file, node int) {
	if file >= len(s.dir) {
		s.dir = append(s.dir, make([]uint8, file+1-len(s.dir))...)
	}
	s.dir[file] |= 1 << uint(node)
}

func (s *Server) dirRemove(file, node int) {
	if file < len(s.dir) {
		s.dir[file] &^= 1 << uint(node)
	}
}

func (s *Server) disk() *Disk { return s.d.Disks[s.id] }

// sweepPending drops forwarded requests whose clients already timed out
// and fixes the in-flight accounting for them.
func (s *Server) sweepPending() {
	if !s.alive {
		return
	}
	for id, p := range s.pending {
		if p.req.Settled() {
			delete(s.pending, id)
			if s.inflight > 0 {
				s.inflight--
			}
		}
	}
}
