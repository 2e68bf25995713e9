package press

import (
	"slices"
	"testing"

	"vivo/internal/cluster"
	"vivo/internal/comm"
	"vivo/internal/sim"
	"vivo/internal/substrate"
)

// scriptedConn is a channel whose Send answers from a script of errors
// (then nil once the script runs out) and records what it accepted.
type scriptedConn struct {
	script []error
	sent   []int // Msg.Kind of each accepted message
}

func (c *scriptedConn) Remote() int                 { return 1 }
func (c *scriptedConn) Established() bool           { return true }
func (c *scriptedConn) Close()                      {}
func (c *scriptedConn) Bind(cb substrate.Callbacks) {}
func (c *scriptedConn) Send(p comm.SendParams) error {
	if len(c.script) > 0 {
		err := c.script[0]
		c.script = c.script[1:]
		if err != nil {
			return err
		}
	}
	c.sent = append(c.sent, p.Msg.Kind)
	return nil
}

func engineServer(pc substrate.PeerConn) *Server {
	k := sim.New(1)
	hw := cluster.New(k, cluster.DefaultConfig())
	return &Server{
		d:     &Deployment{K: k, HW: hw},
		node:  hw.Node(0),
		alive: true,
		conns: map[int]substrate.PeerConn{1: pc},
	}
}

func sendParams(kind int) comm.SendParams {
	return comm.SendParams{Msg: comm.Message{Kind: kind}}
}

// A stalled head stays in place across repeated pushback: the queue keeps
// its order, its storage, and the head's one-reissue mark.
func TestBlockingSendsKeepStalledHeadInPlace(t *testing.T) {
	wb := comm.ErrWouldBlock
	// Message 0: rejected descriptor, then pushback on the reissue;
	// then two more stalls once queued. Its second rejection must drop
	// it: the reissue was spent before it was queued.
	pc := &scriptedConn{script: []error{comm.ErrBadDescriptor, wb, wb, wb, comm.ErrBadDescriptor}}
	s := engineServer(pc)
	e := &blockingSends{s: s}
	for kind := 0; kind < 3; kind++ {
		e.transmitOrQueue(1, sendParams(kind))
	}
	if !e.blocked || !s.node.CPU.Blocked() || len(e.outQ) != 3 {
		t.Fatalf("blocked=%v cpu=%v queued=%d, want a blocked loop with 3 queued", e.blocked, s.node.CPU.Blocked(), len(e.outQ))
	}
	head := &e.outQ[0]
	e.onWritable(1)
	e.onWritable(1)
	if &e.outQ[0] != head || len(e.outQ) != 3 || !e.outQ[0].retried {
		t.Fatal("a stall moved the queue or lost the head's reissue mark")
	}
	e.onWritable(1)
	if want := []int{1, 2}; !slices.Equal(pc.sent, want) {
		t.Fatalf("sent %v, want %v", pc.sent, want)
	}
	if e.blocked || s.node.CPU.Blocked() || len(e.outQ) != 0 {
		t.Fatalf("blocked=%v cpu=%v queued=%d after the drain", e.blocked, s.node.CPU.Blocked(), len(e.outQ))
	}
}

func TestCreditSendsKeepStalledHeadInPlace(t *testing.T) {
	wb := comm.ErrWouldBlock
	pc := &scriptedConn{script: []error{wb, wb, comm.ErrBadDescriptor, wb}}
	s := engineServer(pc)
	e := &creditSends{s: s, peerQ: make([][]outMsg, 2)}
	for kind := 0; kind < 3; kind++ {
		e.transmitOrQueue(1, sendParams(kind))
	}
	if len(e.peerQ[1]) != 3 {
		t.Fatalf("%d deferred, want 3", len(e.peerQ[1]))
	}
	head := &e.peerQ[1][0]
	e.onWritable(1) // pushback again
	e.onWritable(1) // rejected, reissued, pushback
	if &e.peerQ[1][0] != head || len(e.peerQ[1]) != 3 || !e.peerQ[1][0].retried {
		t.Fatal("a stall moved the queue or lost the head's reissue mark")
	}
	e.onWritable(1)
	if want := []int{0, 1, 2}; !slices.Equal(pc.sent, want) {
		t.Fatalf("sent %v, want %v", pc.sent, want)
	}
	if len(e.peerQ[1]) != 0 {
		t.Fatal("drained queue still holds messages")
	}
}

// stallConn pushes back while stalled and accepts everything otherwise.
type stallConn struct {
	stalled bool
	sent    int
}

func (c *stallConn) Remote() int                 { return 1 }
func (c *stallConn) Established() bool           { return true }
func (c *stallConn) Close()                      {}
func (c *stallConn) Bind(cb substrate.Callbacks) {}
func (c *stallConn) Send(p comm.SendParams) error {
	if c.stalled {
		return comm.ErrWouldBlock
	}
	c.sent++
	return nil
}

// A drained queue keeps its storage: after one stall-and-drain cycle, a
// second stall of the same depth queues without allocating.
func TestSendQueuesKeepStorageAcrossStalls(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine func(*Server) sendEngine
	}{
		{"blocking", func(s *Server) sendEngine { return &blockingSends{s: s} }},
		{"credit", func(s *Server) sendEngine { return &creditSends{s: s, peerQ: make([][]outMsg, 2)} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pc := &stallConn{}
			s := engineServer(pc)
			e := tc.engine(s)
			cycle := func() {
				pc.stalled = true
				for kind := 0; kind < 8; kind++ {
					e.transmitOrQueue(1, sendParams(kind))
				}
				pc.stalled = false
				e.onWritable(1)
			}
			cycle()
			if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
				t.Fatalf("a repeated stall allocates %.1f times", allocs)
			}
			if pc.sent != 8*12 || s.node.CPU.Blocked() {
				t.Fatalf("sent %d of %d, CPU blocked = %v", pc.sent, 8*12, s.node.CPU.Blocked())
			}
		})
	}
}
