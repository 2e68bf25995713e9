// Package via adapts the simulated user-level VIA NIC (internal/viasim)
// to the substrate SPI; [Options] is its [substrate.Spec].
//
// VIA behaviour — message descriptors, pre-allocated pinned buffers,
// credit flow control, ~1 s fail-stop channel breaks, remote writes with
// both-end error reporting, optional synchronous descriptor validation
// (the §7 robust layer) — lives in viasim. This package translates
// viasim's handler callbacks into [substrate.Callbacks]; viasim's OnError
// (asynchronous descriptor error completion) maps to the SPI's OnFatal,
// matching how a fail-fast service treats it.
package via

import (
	"vivo/internal/comm"
	"vivo/internal/sim"
	"vivo/internal/substrate"
	"vivo/internal/trace"
	"vivo/internal/viasim"
)

// Options parameterizes the VIA substrate. RemoteWrites selects the
// RDMA-write data path on every send (VIA-PRESS-3/5); the zero value is
// NOT the default config, use DefaultOptions and adjust fields.
type Options struct {
	Config       viasim.Config
	RemoteWrites bool
}

// DefaultOptions returns the NIC's defaults (see viasim.DefaultConfig).
func DefaultOptions() Options {
	return Options{Config: viasim.DefaultConfig()}
}

// NewTransport implements [substrate.Spec]: one viasim NIC per node.
func (o Options) NewTransport(env substrate.NodeEnv) substrate.Transport {
	return transport{
		nic:          viasim.NewNIC(env.K, env.HW, env.Node, env.OS, o.Config),
		remoteWrites: o.RemoteWrites,
		k:            env.K,
		node:         env.Node.ID,
	}
}

type transport struct {
	nic          *viasim.NIC
	remoteWrites bool
	k            *sim.Kernel
	node         int
}

func (t transport) wrap(v *viasim.VI) *conn {
	return &conn{v: v, rw: t.remoteWrites, k: t.k, node: t.node}
}

func (t transport) Listen(accept func(substrate.PeerConn)) {
	t.nic.Listen(func(v *viasim.VI) { accept(t.wrap(v)) })
}

func (t transport) Unlisten() { t.nic.Listen(nil) }

func (t transport) Dial(dst int, cb func(substrate.PeerConn, error)) {
	t.nic.Dial(dst, func(v *viasim.VI, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		cb(t.wrap(v), nil)
	})
}

type conn struct {
	v    *viasim.VI
	rw   bool
	k    *sim.Kernel
	node int
}

func (vc *conn) Remote() int       { return vc.v.Remote() }
func (vc *conn) Established() bool { return vc.v.Established() }
func (vc *conn) Close()            { vc.v.Disconnect() }

func (vc *conn) Send(p comm.SendParams) error {
	err := vc.v.Send(p, vc.rw)
	// VIA's flow-control pushback is visible credit exhaustion.
	substrate.TraceSend(vc.k, vc.node, vc.v.Remote(), p, err, trace.EvCreditStall)
	return err
}

func (vc *conn) Bind(cb substrate.Callbacks) {
	cb = substrate.TraceBind(vc.k, vc.node, cb)
	vc.v.Handler = viasim.Handler{
		OnMessage: func(_ *viasim.VI, d *viasim.Delivered) {
			cb.OnMessage(vc, substrate.Delivered{Msg: d.Msg, Corrupt: d.Corrupt, Release: d.Release})
		},
		OnWritable: func(*viasim.VI) { cb.OnWritable(vc) },
		OnBreak:    func(_ *viasim.VI, err error) { cb.OnBreak(vc, err) },
		OnError:    func(_ *viasim.VI, err error) { cb.OnFatal(vc, err) },
	}
}
