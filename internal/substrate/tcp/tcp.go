// Package tcp adapts the simulated kernel TCP stack (internal/tcpsim) to
// the substrate SPI; [Options] is its [substrate.Spec].
//
// The adapter is deliberately thin: all TCP behaviour — byte-stream
// framing, retransmission with exponential backoff, minute-scale aborts,
// RSTs, synchronous EFAULT, stream desync on size faults — lives in
// tcpsim. This package only translates tcpsim's handler callbacks into
// [substrate.Callbacks] and its *tcpsim.Conn into a [substrate.PeerConn].
package tcp

import (
	"vivo/internal/comm"
	"vivo/internal/sim"
	"vivo/internal/substrate"
	"vivo/internal/tcpsim"
	"vivo/internal/trace"
)

// Options parameterizes the TCP substrate. The zero value is NOT the
// default; use DefaultOptions and adjust fields.
type Options struct {
	Config tcpsim.Config
}

// DefaultOptions returns the stack's defaults (Linux-2.2-era timer and
// buffer parameters; see tcpsim.DefaultConfig).
func DefaultOptions() Options {
	return Options{Config: tcpsim.DefaultConfig()}
}

// NewTransport implements [substrate.Spec]: one tcpsim stack per node.
func (o Options) NewTransport(env substrate.NodeEnv) substrate.Transport {
	return transport{
		st:   tcpsim.NewStack(env.K, env.HW, env.Node, env.OS, o.Config),
		k:    env.K,
		node: env.Node.ID,
	}
}

type transport struct {
	st   *tcpsim.Stack
	k    *sim.Kernel
	node int
}

func (t transport) wrap(c *tcpsim.Conn) *conn {
	return &conn{c: c, k: t.k, node: t.node}
}

func (t transport) Listen(accept func(substrate.PeerConn)) {
	t.st.Listen(func(c *tcpsim.Conn) { accept(t.wrap(c)) })
}

func (t transport) Unlisten() { t.st.Listen(nil) }

func (t transport) Dial(dst int, cb func(substrate.PeerConn, error)) {
	t.st.Dial(dst, func(c *tcpsim.Conn, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		cb(t.wrap(c), nil)
	})
}

type conn struct {
	c    *tcpsim.Conn
	k    *sim.Kernel
	node int
}

func (tc *conn) Remote() int       { return tc.c.Remote() }
func (tc *conn) Established() bool { return tc.c.Established() }
func (tc *conn) Close()            { tc.c.Abort() }

func (tc *conn) Send(p comm.SendParams) error {
	err := tc.c.Send(p)
	// TCP's flow-control pushback is the kernel socket buffer filling up.
	substrate.TraceSend(tc.k, tc.node, tc.c.Remote(), p, err, trace.EvSendBlock)
	return err
}

func (tc *conn) Bind(cb substrate.Callbacks) {
	cb = substrate.TraceBind(tc.k, tc.node, cb)
	tc.c.Handler = tcpsim.Handler{
		OnMessage: func(_ *tcpsim.Conn, d *tcpsim.Delivered) {
			cb.OnMessage(tc, substrate.Delivered{Msg: d.Msg, Corrupt: d.Corrupt, Buf: d})
		},
		OnWritable: func(*tcpsim.Conn) { cb.OnWritable(tc) },
		OnBreak:    func(_ *tcpsim.Conn, err error) { cb.OnBreak(tc, err) },
		OnFatal:    func(_ *tcpsim.Conn, err error) { cb.OnFatal(tc, err) },
	}
}
