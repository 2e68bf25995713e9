package press

import (
	"time"

	"vivo/internal/comm"
	"vivo/internal/metrics"
	"vivo/internal/substrate"
	"vivo/internal/trace"
	"vivo/internal/workload"
)

// This file holds the recycled records of the request path: the wire
// payloads of intra-cluster messages and the server's CPU (and disk)
// tasks. Both follow the kernel's hot-callback idiom (see package sim):
// a free list per owner, callbacks bound once when a record is made, and
// a record back on its list only when nothing can read it again.

// newWire takes a payload record from the deployment's free list. Wires
// travel between servers, so the deployment, not a server, owns the list.
func (d *Deployment) newWire() *wire {
	if n := len(d.wires); n > 0 {
		w := d.wires[n-1]
		d.wires[n-1] = nil
		d.wires = d.wires[:n-1]
		return w
	}
	return &wire{}
}

// freeWire recycles a delivered payload. The receiving server calls it
// once it has copied the message out: each message is delivered exactly
// once, so no substrate record or retransmitted segment can hand the
// payload to anyone again. Payloads of messages that are never delivered
// (dropped sends, broken channels) are left to the garbage collector.
func (d *Deployment) freeWire(w *wire) {
	*w = wire{}
	d.wires = append(d.wires, w)
}

// taskOp is what a task does when its CPU (or disk) work completes.
type taskOp uint8

const (
	opSend        taskOp = iota // post w to dst through the send engine
	opRecv                      // handle a received message (kind, w)
	opAdmit                     // admit client request r
	opHit                       // finish r from the local cache
	opFetch                     // r's disk read is done: insert on the CPU
	opInsert                    // cache r's file and finish r
	opRedispatch                // re-route r after its service node left
	opServe                     // a forwarded request (w) hit the cache: reply
	opServeFetch                // its disk read is done: insert on the CPU
	opServeInsert               // cache its file and reply
)

// task is one unit of server work queued on the node's CPU or disk.
// Records are recycled through Server.tasks, and each one's run callback
// is bound when it is first made, so submitting work allocates nothing
// once the free list has grown to the peak number of tasks queued. A
// record goes back on the list when its work runs; work a node crash
// discards leaves its record to the garbage collector.
type task struct {
	s       *Server
	op      taskOp
	r       *workload.Request
	pc      substrate.PeerConn
	dst     int
	kind    int
	size    int
	corrupt bool
	w       wire
	run     func() // t.exec, bound once
}

func (s *Server) newTask(op taskOp) *task {
	var t *task
	if n := len(s.tasks); n > 0 {
		t = s.tasks[n-1]
		s.tasks[n-1] = nil
		s.tasks = s.tasks[:n-1]
	} else {
		t = &task{s: s}
		t.run = t.exec
	}
	t.op = op
	return t
}

// submit queues t on the CPU at the given cost.
func (t *task) submit(cost time.Duration) { t.s.node.CPU.Submit(cost, t.run) }

func (t *task) exec() {
	s := t.s
	// Disk reads hand their record on to the CPU insert that follows.
	switch t.op {
	case opFetch, opServeFetch:
		if s.alive {
			if t.op == opFetch {
				t.op = opInsert
			} else {
				t.op = opServeInsert
			}
			t.submit(s.cost.CacheInsert)
			return
		}
		if t.op == opFetch {
			s.failReq(t.r, metrics.Refused, "process down")
		}
		s.freeTask(t)
		return
	}
	// Copy out and release first: the work below submits more tasks.
	op, r, pc, dst, kind, size, corrupt, w := t.op, t.r, t.pc, t.dst, t.kind, t.size, t.corrupt, t.w
	s.freeTask(t)
	switch op {
	case opSend:
		if s.alive {
			s.engine.transmitOrQueue(dst, s.params(kind, w, size))
		}
	case opRecv:
		if !s.alive {
			return
		}
		if corrupt {
			// Garbage payload (off-by-N pointer upstream): the
			// parser trips over it and the process fail-fasts.
			s.failFast(comm.ErrStreamCorrupt)
			return
		}
		s.handleMsg(pc, kind, w)
	case opAdmit:
		if !s.alive {
			s.failReq(r, metrics.Refused, "process down")
			return
		}
		if r.Settled() {
			return // client gave up while we were queued
		}
		s.inflight++
		s.emitReq(trace.EvReqAdmit, r.ID, int64(r.File), "")
		s.route(r)
	case opHit:
		if s.alive {
			s.finish(r)
		}
	case opInsert:
		if !s.alive {
			s.failReq(r, metrics.Refused, "process down")
			return
		}
		s.insertFile(r.File)
		s.finish(r)
	case opRedispatch:
		if !s.alive {
			return
		}
		if r.Settled() {
			if s.inflight > 0 {
				s.inflight--
			}
			return
		}
		s.route(r)
	case opServe:
		if s.alive {
			s.reply(w)
		}
	case opServeInsert:
		if s.alive {
			s.insertFile(w.File)
			s.reply(w)
		}
	}
}

// freeTask clears t's references and puts it back on the free list.
func (s *Server) freeTask(t *task) {
	*t = task{s: s, run: t.run}
	s.tasks = append(s.tasks, t)
}
