// Package viasim is a behavioural simulation of a user-level Virtual
// Interface Architecture (VIA) provider in the style of the Giganet cLAN
// VIPL library. It reproduces the VIA properties the paper identifies as
// decisive for cluster-server performability:
//
//   - message-based transfers: boundaries are preserved by the hardware,
//     so a size fault is confined to the descriptor that carries it instead
//     of corrupting everything that follows (contrast tcpsim);
//   - pre-allocation: receive descriptors and communication buffers are
//     registered (pinned) at connection setup, making established channels
//     immune to kernel-memory exhaustion;
//   - fail-stop error model: a send that the fabric cannot deliver within
//     a hardware timeout breaks the connection instead of retrying for
//     minutes, so higher-level recovery starts almost immediately;
//   - asynchronous error reporting through descriptor completion status;
//   - remote memory writes (VIA-PRESS-3/5): polled reception without
//     receiver interrupts, with the documented hazard that a bad parameter
//     surfaces errors at BOTH ends of the transfer;
//   - credit-based flow control implemented by the library, not the
//     kernel, with explicit credit-return messages.
package viasim

import (
	"errors"
	"time"

	"vivo/internal/cluster"
	"vivo/internal/comm"
	"vivo/internal/osmodel"
	"vivo/internal/sim"
)

// ProtoName is the cluster-fabric protocol identifier used by VIA.
const ProtoName = "via"

// Errors specific to the VIA simulator.
var (
	// ErrConnBroken: the fail-stop hardware timeout fired; the VI is
	// unusable and higher-level recovery should start.
	ErrConnBroken = errors.New("viasim: connection broken")
	// ErrRefused: the remote end NACKed connection setup (no listener,
	// or it could not pre-allocate resources).
	ErrRefused = errors.New("viasim: connection refused")
	// ErrTimeout: connection setup went unanswered.
	ErrTimeout = errors.New("viasim: connect timed out")
	// ErrHostDown: the local host is down.
	ErrHostDown = errors.New("viasim: host down")
)

// Config holds the provider tunables.
type Config struct {
	// MTU is the maximum message size the NIC accepts in one descriptor.
	MTU int
	// Credits is the number of pre-posted receive descriptors per VI;
	// it is also the sender's initial credit count.
	Credits int
	// EntrySize is the fixed size of one pre-allocated communication
	// buffer entry; with Credits entries per direction this fixes the
	// registered (pinned) memory per VI.
	EntrySize int
	// DescriptorBytes is the pinned space for descriptor rings per VI.
	DescriptorBytes int
	// HWAckTimeout is the hardware delivery-acknowledgement timeout;
	// HWAckRetries sends before declaring the connection broken. Their
	// product is the fail-stop detection latency (about a second).
	HWAckTimeout time.Duration
	HWAckRetries int
	// PollDelay models the receiver polling for remote-write messages
	// at the end of its main loop instead of taking an interrupt.
	PollDelay time.Duration
	// ConnectTimeout bounds connection setup.
	ConnectTimeout time.Duration
	// WireHeader is the per-message wire overhead.
	WireHeader int

	// DynamicBuffers is an ablation switch: instead of pre-allocating
	// all channel resources at setup (the real VIA behaviour the paper
	// credits for resource-exhaustion immunity), each send and each
	// reception allocates kernel memory dynamically, exactly like TCP.
	// With it on, kernel-memory exhaustion stalls VIA too.
	DynamicBuffers bool

	// SyncDescriptorChecks implements part of the paper's §7 proposal
	// for a robust communication layer: descriptors are validated
	// synchronously when posted, so bad parameters are rejected with an
	// error return instead of being launched into the fabric, where
	// they become asynchronous error completions (and, for remote
	// writes, remote-side damage). The channel survives the rejected
	// call.
	SyncDescriptorChecks bool
}

// DefaultConfig returns the provider configuration used in the study.
func DefaultConfig() Config {
	return Config{
		MTU:             64 << 10,
		Credits:         32,
		EntrySize:       16 << 10,
		DescriptorBytes: 16 << 10,
		HWAckTimeout:    250 * time.Millisecond,
		HWAckRetries:    3,
		PollDelay:       25 * time.Microsecond,
		ConnectTimeout:  3 * time.Second,
		WireHeader:      32,
	}
}

// RegisteredBytesPerVI returns the pinned memory one VI consumes at setup:
// both buffer rings plus descriptor space.
func (c Config) RegisteredBytesPerVI() int64 {
	return int64(2*c.Credits*c.EntrySize + c.DescriptorBytes)
}

type frameKind int

const (
	frameConnReq frameKind = iota
	frameConnAck
	frameConnNack
	frameData
	frameHWAck       // hardware-level delivery acknowledgement
	frameNack        // hardware-level negative ack (no such VI)
	frameCredit      // flow-control credit return (cumulative count)
	frameCreditProbe // blocked sender asking for the current count
	frameRDMAErr
	frameDisc // orderly disconnect notification
)

// frame is the payload attached to a cluster.Packet, always as a pointer
// to a record from its sender's free list (NIC.frames), so boxing it in
// Packet.Payload allocates nothing. The receiving NIC copies the frame out
// and hands the record back to owner before acting on it; a frame lost in
// the fabric is simply left to the garbage collector.
type frame struct {
	kind  frameKind
	viID  uint64
	src   int
	msgID uint64

	remoteWrite  bool
	msgKind      int
	payload      any
	declaredSize int
	wireSize     int
	corrupt      bool
	sizeMismatch bool

	err string // for frameRDMAErr

	owner *NIC
}

// NIC is the per-node VIA provider state (NIC hardware + VIPL library).
// Node crashes wipe it; it reinstalls on boot.
type NIC struct {
	k   *sim.Kernel
	cl  *cluster.Cluster
	nd  *cluster.Node
	os  *osmodel.OS
	cfg Config

	alive    bool
	vis      map[uint64]*VI
	listener func(*VI)
	nextID   uint64
	nextMsg  uint64

	// Free lists: frames this NIC sent whose receivers have taken
	// them, and deliveries the application has released.
	frames []*frame
	delivs []*Delivered
}

// NewNIC creates and installs the VIA provider on a node.
func NewNIC(k *sim.Kernel, cl *cluster.Cluster, nd *cluster.Node, os *osmodel.OS, cfg Config) *NIC {
	n := &NIC{k: k, cl: cl, nd: nd, os: os, cfg: cfg}
	n.install()
	nd.OnCrash(func() { n.teardown() })
	nd.OnBoot(func() { n.install() })
	return n
}

func (n *NIC) install() {
	n.alive = true
	n.vis = make(map[uint64]*VI)
	n.listener = nil
	n.nd.RegisterProto(ProtoName, n.receive)
}

func (n *NIC) teardown() {
	n.alive = false
	for _, v := range n.vis {
		v.vanish()
	}
	n.vis = nil
	n.listener = nil
}

// Alive reports whether the provider's host is up.
func (n *NIC) Alive() bool { return n.alive }

// Config returns the provider configuration.
func (n *NIC) Config() Config { return n.cfg }

// Listen installs the passive-open handler. Each accepted VI has its
// resources pre-allocated before the handler sees it. A nil handler makes
// inbound connection requests be NACKed.
func (n *NIC) Listen(accept func(*VI)) { n.listener = accept }

// Dial opens a VI to node dst. Resource pre-allocation (registering and
// pinning the communication buffers) happens here, at setup time — the
// property that later makes the channel immune to memory exhaustion. A
// pin failure surfaces immediately as ErrNoResources.
func (n *NIC) Dial(dst int, cb func(*VI, error)) {
	if !n.alive {
		cb(nil, ErrHostDown)
		return
	}
	if err := n.os.Pin(n.cfg.RegisteredBytesPerVI()); err != nil {
		cb(nil, comm.ErrNoResources)
		return
	}
	n.nextID++
	id := uint64(n.nd.ID)<<32 | n.nextID
	v := newVI(n, id, dst)
	n.vis[id] = v
	n.transmit(dst, frame{kind: frameConnReq, viID: id, src: n.nd.ID}, 64)
	timer := n.k.After(n.cfg.ConnectTimeout, func() {
		if v.state == viConnecting {
			n.dropVI(v)
			cb(nil, ErrTimeout)
		}
	})
	v.connectCB = func(err error) {
		timer.Cancel()
		if err != nil {
			n.dropVI(v)
			cb(nil, err)
			return
		}
		v.state = viEstablished
		cb(v, nil)
	}
}

func (n *NIC) dropVI(v *VI) {
	if v.state == viDead {
		return
	}
	v.state = viDead
	v.cancelTimers()
	if n.vis != nil {
		delete(n.vis, v.id)
	}
	if n.alive {
		n.os.Unpin(n.cfg.RegisteredBytesPerVI())
	}
}

func (n *NIC) transmit(dst int, f frame, size int) {
	if !n.alive {
		return
	}
	fr := n.newFrame()
	*fr = f
	fr.owner = n
	n.cl.Transmit(cluster.Packet{Src: n.nd.ID, Dst: dst, Size: size, Proto: ProtoName, Payload: fr})
}

func (n *NIC) newFrame() *frame {
	if k := len(n.frames); k > 0 {
		f := n.frames[k-1]
		n.frames[k-1] = nil
		n.frames = n.frames[:k-1]
		return f
	}
	return &frame{}
}

func (n *NIC) receive(p cluster.Packet) {
	fr, ok := p.Payload.(*frame)
	if !ok {
		return
	}
	// Copy out first, then hand the record back to its sender: nothing
	// below reads it again.
	f := *fr
	*fr = frame{}
	f.owner.frames = append(f.owner.frames, fr)
	if !n.alive {
		return
	}
	if n.cfg.DynamicBuffers && f.kind == frameData && !n.os.AllocSKBuf() {
		// Ablation: reception needs dynamic kernel memory too. The
		// dropped (unacked) message makes the sender's fail-stop
		// machinery break the channel — pre-allocation is what
		// normally prevents this failure mode entirely.
		return
	}
	switch f.kind {
	case frameConnReq:
		n.onConnReq(f)
	case frameConnAck:
		n.onConnAck(f)
	case frameConnNack:
		n.onConnNack(f)
	case frameData:
		n.onData(f, p.Src)
	case frameHWAck:
		n.onHWAck(f)
	case frameNack:
		n.onNack(f)
	case frameCredit:
		n.onCredit(f)
	case frameCreditProbe:
		n.onCreditProbe(f)
	case frameRDMAErr:
		n.onRDMAErr(f)
	case frameDisc:
		n.onDisc(f)
	}
}

func (n *NIC) onConnReq(f frame) {
	if v, ok := n.vis[f.viID]; ok && v.passive {
		// Duplicate request: re-ack.
		n.transmit(f.src, frame{kind: frameConnAck, viID: f.viID, src: n.nd.ID}, 64)
		return
	}
	if n.listener == nil {
		n.transmit(f.src, frame{kind: frameConnNack, viID: f.viID, src: n.nd.ID}, 64)
		return
	}
	if err := n.os.Pin(n.cfg.RegisteredBytesPerVI()); err != nil {
		n.transmit(f.src, frame{kind: frameConnNack, viID: f.viID, src: n.nd.ID}, 64)
		return
	}
	v := newVI(n, f.viID, f.src)
	v.passive = true
	v.state = viEstablished
	n.vis[f.viID] = v
	n.transmit(f.src, frame{kind: frameConnAck, viID: f.viID, src: n.nd.ID}, 64)
	n.listener(v)
}

func (n *NIC) onConnAck(f frame) {
	if v, ok := n.vis[f.viID]; ok && v.state == viConnecting && v.connectCB != nil {
		cb := v.connectCB
		v.connectCB = nil
		cb(nil)
	}
}

func (n *NIC) onConnNack(f frame) {
	if v, ok := n.vis[f.viID]; ok && v.state == viConnecting && v.connectCB != nil {
		cb := v.connectCB
		v.connectCB = nil
		cb(ErrRefused)
	}
}

func (n *NIC) onData(f frame, src int) {
	v, ok := n.vis[f.viID]
	if !ok || v.state != viEstablished {
		// No such VI (process died, VI torn down): hardware NACK, the
		// sender's fail-stop signal.
		n.transmit(src, frame{kind: frameNack, viID: f.viID, src: n.nd.ID}, 40)
		return
	}
	v.handleData(f)
}

func (n *NIC) onHWAck(f frame) {
	if v, ok := n.vis[f.viID]; ok {
		v.handleHWAck(f.msgID)
	}
}

func (n *NIC) onNack(f frame) {
	if v, ok := n.vis[f.viID]; ok && v.state == viEstablished {
		v.breakConn(ErrConnBroken)
	}
}

func (n *NIC) onCredit(f frame) {
	if v, ok := n.vis[f.viID]; ok && v.state == viEstablished {
		v.handleCredit(f.msgID)
	}
}

func (n *NIC) onCreditProbe(f frame) {
	if v, ok := n.vis[f.viID]; ok && v.state == viEstablished {
		v.sendCreditUpdate()
	}
}

func (n *NIC) onRDMAErr(f frame) {
	if v, ok := n.vis[f.viID]; ok && v.state == viEstablished {
		// A remote write went wrong: the error surfaces on this side
		// too (corrupted target memory / protection violation).
		v.signalError(comm.ErrDescriptorError)
	}
}

func (n *NIC) onDisc(f frame) {
	if v, ok := n.vis[f.viID]; ok && v.state == viEstablished {
		v.breakConn(ErrConnBroken)
	}
}
