package substrate

import (
	"vivo/internal/cluster"
	"vivo/internal/comm"
	"vivo/internal/osmodel"
	"vivo/internal/sim"
)

// Delivered is one substrate-independent received message. Corrupt marks
// a payload damaged in flight (e.g. an off-by-N pointer upstream).
//
// Buf is the substrate's own record of the delivery, recycled through a
// free list: a Delivered is valid from the OnMessage call until Release,
// which returns the receive buffer to the substrate, hands the record
// back, and must be called exactly once. A service copies out whatever it
// reads after Release (Msg, Corrupt) before calling it.
type Delivered struct {
	Msg     comm.Message
	Corrupt bool
	Buf     Releaser
}

// Releaser is a substrate's delivery record.
type Releaser interface{ Release() }

// Release returns the receive buffer to the substrate.
func (d Delivered) Release() { d.Buf.Release() }

// Callbacks is the event interface a service binds to each channel.
type Callbacks struct {
	OnMessage  func(pc PeerConn, d Delivered)
	OnWritable func(pc PeerConn)
	OnBreak    func(pc PeerConn, err error)
	// OnFatal reports unrecoverable substrate errors (TCP stream desync,
	// VIA descriptor error completion); fail-fast services terminate.
	OnFatal func(pc PeerConn, err error)
}

// PeerConn abstracts one established channel to a peer, hiding whether it
// is a TCP connection or a VI.
type PeerConn interface {
	// Remote returns the peer node id.
	Remote() int
	// Established reports whether the channel is usable.
	Established() bool
	// Send posts one message. Errors follow the substrate's semantics
	// (comm.ErrWouldBlock, comm.ErrEFAULT, comm.ErrBroken, ...).
	Send(p comm.SendParams) error
	// Close tears the channel down locally, notifying the peer.
	Close()
	// Bind installs the service's callbacks.
	Bind(cb Callbacks)
}

// Transport is a node's substrate endpoint: it accepts inbound channels
// and dials outbound ones.
type Transport interface {
	Listen(accept func(pc PeerConn))
	Unlisten()
	Dial(dst int, cb func(pc PeerConn, err error))
}

// NodeEnv is everything a substrate factory may need to build one node's
// transport: the shared event kernel and hardware, plus the node and its
// OS model (kernel memory, pinnable pages).
type NodeEnv struct {
	K    *sim.Kernel
	HW   *cluster.Cluster
	Node *cluster.Node
	OS   *osmodel.OS
}

// Spec is a value that builds a node's transport: an implementation's
// options type. Version registries and configs carry Specs around and
// call NewTransport once per node at deployment time; implementations
// are plain comparable values, so the configs that hold them stay
// comparable.
type Spec interface {
	NewTransport(env NodeEnv) Transport
}
