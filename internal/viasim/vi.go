package viasim

import (
	"time"

	"vivo/internal/comm"
	"vivo/internal/sim"
)

type viState int

const (
	viConnecting viState = iota
	viEstablished
	viDead
)

// Handler carries the application callbacks for one VI. All fields may be
// nil.
type Handler struct {
	// OnMessage delivers one message. Message boundaries are preserved
	// by the hardware; Corrupt marks garbage payload (valid-but-wrong
	// pointer at the sender). Call the message's Release method when
	// processing completes to return the credit.
	OnMessage func(v *VI, d *Delivered)
	// OnWritable fires after Send returned ErrWouldBlock and a credit
	// came back.
	OnWritable func(v *VI)
	// OnBreak fires once when the fail-stop machinery declares the
	// connection dead (hardware ack timeout, NACK, peer disconnect).
	OnBreak func(v *VI, err error)
	// OnError fires when a descriptor completes with error status (bad
	// parameters, remote-write damage). PRESS treats this as fatal.
	OnError func(v *VI, err error)
}

// Delivered is one message handed to OnMessage. It is a record from the
// receiving NIC's free list: it stays valid until the application calls
// Release, which hands it back for the next delivery.
type Delivered struct {
	Msg         comm.Message
	Corrupt     bool
	RemoteWrite bool

	vi     *VI
	n      *NIC
	arrive func() // d.hand, bound once: the delivery event
}

// Release returns this message's receive descriptor to the sender as a
// flow-control credit. The application calls it when processing
// completes. Release recycles d, so the application must copy out
// anything it still needs first; a second call before d is reused is
// ignored.
func (d *Delivered) Release() {
	v := d.vi
	if v == nil {
		return
	}
	d.recycle()
	v.Release()
}

func (n *NIC) newDelivered() *Delivered {
	if k := len(n.delivs); k > 0 {
		d := n.delivs[k-1]
		n.delivs[k-1] = nil
		n.delivs = n.delivs[:k-1]
		return d
	}
	d := &Delivered{n: n}
	d.arrive = d.hand
	return d
}

// recycle clears d and puts it back on its NIC's free list.
func (d *Delivered) recycle() {
	n := d.n
	*d = Delivered{n: n, arrive: d.arrive}
	n.delivs = append(n.delivs, d)
}

// hand delivers d to the application when its (interrupt or polled)
// delivery time comes. A delivery the application never sees goes
// straight back on the free list.
func (d *Delivered) hand() {
	v := d.vi
	if v.state != viEstablished || v.Handler.OnMessage == nil {
		d.recycle()
		return
	}
	v.Handler.OnMessage(v, d)
}

// pendingMsg is one sent message awaiting its hardware ack. Records are
// recycled through VI.free, and each one's timeout callback is bound when
// the record is first made, so a message allocates neither.
type pendingMsg struct {
	v       *VI
	f       frame
	size    int
	tries   int
	timer   sim.Event
	timeout func() // pm.expire, bound once
}

// VI is one Virtual Interface endpoint (a connected channel to one peer).
type VI struct {
	n       *NIC
	id      uint64
	remote  int
	passive bool
	state   viState
	Handler Handler

	connectCB func(error)

	// Flow control is cumulative so that lost credit frames cannot leak
	// credits: the receiver advertises its total released count, the
	// sender compares it with its total posted count.
	peerReleased  uint64
	totalReleased uint64
	wantWrite     bool
	probing       bool
	probe         func() // v.probeFired, bound once
	nextSeq       uint64
	pending       map[uint64]*pendingMsg
	free          []*pendingMsg // acked records, ready for reuse

	expected uint64
	// reorder buffers out-of-order frames of a loss burst (selective
	// repeat), bounded by the pre-posted descriptor window.
	reorder       map[uint64]frame
	errSignaled   bool
	nextDeliverAt sim.Time // keeps polled and interrupt deliveries in order
}

func newVI(n *NIC, id uint64, remote int) *VI {
	v := &VI{
		n:       n,
		id:      id,
		remote:  remote,
		state:   viConnecting,
		pending: make(map[uint64]*pendingMsg),
		reorder: make(map[uint64]frame),
	}
	v.probe = v.probeFired
	return v
}

// Remote returns the peer node id.
func (v *VI) Remote() int { return v.remote }

// Established reports whether the VI is usable.
func (v *VI) Established() bool { return v.state == viEstablished }

// Credits returns the sender-side credit count (free peer receive
// descriptors).
func (v *VI) Credits() int {
	return v.n.cfg.Credits - int(v.nextSeq-v.peerReleased)
}

// Writable reports whether Send would currently accept a message.
func (v *VI) Writable() bool { return v.state == viEstablished && v.Credits() > 0 }

// Send posts one send descriptor.
//
// The call itself only fails synchronously for flow control (no credits:
// ErrWouldBlock) or a dead VI (ErrBroken). Bad parameters are NOT detected
// here — descriptors are validated asynchronously by the NIC, surfacing as
// error completions via OnError, on one or both ends:
//
//   - NULL pointer: translation fails locally; error completion at the
//     sender. For a remote write the error also surfaces at the target
//     (the paper's "termination of 2 nodes").
//   - off-by-N pointer: the address is valid, so the hardware happily
//     moves garbage; the receiver sees a corrupt message (and, for remote
//     writes, the error is reported at both ends).
//   - off-by-N size: the message/descriptor length mismatch completes the
//     receive descriptor with error status at the receiver; both ends for
//     remote writes. Crucially, damage is confined to this one message —
//     the channel does not desynchronize, unlike the TCP byte stream.
func (v *VI) Send(p comm.SendParams, remoteWrite bool) error {
	if v.state != viEstablished {
		return comm.ErrBroken
	}
	if v.n.cfg.SyncDescriptorChecks && p.Corrupted() {
		// §7-style robust layer: validate the descriptor up front and
		// reject it synchronously; nothing touches the wire and the
		// channel stays healthy.
		return comm.ErrBadDescriptor
	}
	if p.NullPtr {
		// Asynchronous local error completion; nothing goes on the
		// wire except the remote-write damage notification.
		v.n.k.After(10*time.Microsecond, func() {
			if v.state != viEstablished {
				return
			}
			if remoteWrite {
				v.n.transmit(v.remote, frame{kind: frameRDMAErr, viID: v.id, src: v.n.nd.ID}, 40)
			}
			v.signalError(comm.ErrDescriptorError)
		})
		return nil
	}
	if v.Credits() <= 0 {
		v.wantWrite = true
		v.armCreditProbe()
		return comm.ErrWouldBlock
	}
	if v.n.cfg.DynamicBuffers && !v.n.os.AllocSKBuf() {
		// Ablation: without pre-allocation the send path depends on
		// dynamic kernel memory, so exhaustion blocks it (TCP-style).
		v.wantWrite = true
		v.armDynRetry()
		return comm.ErrWouldBlock
	}
	wire := p.WireSize() + v.n.cfg.WireHeader
	if wire > v.n.cfg.MTU {
		wire = v.n.cfg.MTU
	}
	v.nextSeq++
	f := frame{
		kind:         frameData,
		viID:         v.id,
		src:          v.n.nd.ID,
		msgID:        v.nextSeq,
		remoteWrite:  remoteWrite,
		msgKind:      p.Msg.Kind,
		payload:      p.Msg.Payload,
		declaredSize: p.Msg.Size,
		wireSize:     wire,
		corrupt:      p.PtrOffset != 0,
		sizeMismatch: p.SizeOffset != 0,
	}
	pm := v.newPending()
	pm.f, pm.size = f, wire
	v.pending[f.msgID] = pm
	v.n.transmit(v.remote, f, wire)
	v.armHWAck(pm)
	return nil
}

func (v *VI) newPending() *pendingMsg {
	if n := len(v.free); n > 0 {
		pm := v.free[n-1]
		v.free[n-1] = nil
		v.free = v.free[:n-1]
		return pm
	}
	pm := &pendingMsg{v: v}
	pm.timeout = pm.expire
	return pm
}

func (v *VI) armHWAck(pm *pendingMsg) {
	pm.timer = v.n.k.After(v.n.cfg.HWAckTimeout, pm.timeout)
}

func (pm *pendingMsg) expire() {
	v := pm.v
	if v.state != viEstablished {
		return
	}
	if _, live := v.pending[pm.f.msgID]; !live {
		return
	}
	pm.tries++
	if pm.tries >= v.n.cfg.HWAckRetries {
		// Fail-stop: the fabric could not deliver. Break the
		// channel and let recovery begin — this is VIA's fast,
		// accurate error reporting in action.
		v.breakConn(ErrConnBroken)
		return
	}
	v.n.transmit(v.remote, pm.f, pm.size)
	v.armHWAck(pm)
}

func (v *VI) handleHWAck(msgID uint64) {
	pm, ok := v.pending[msgID]
	if !ok {
		return
	}
	// Cancel before recycling: a stale timeout must never fire against
	// the record's next message.
	pm.timer.Cancel()
	delete(v.pending, msgID)
	*pm = pendingMsg{v: v, timeout: pm.timeout}
	v.free = append(v.free, pm)
}

// armDynRetry polls for kernel memory to come back (ablation mode only).
func (v *VI) armDynRetry() {
	v.n.k.After(100*time.Millisecond, func() {
		if v.state != viEstablished || !v.wantWrite {
			return
		}
		if v.n.os.AllocSKBuf() {
			if v.Writable() {
				v.wantWrite = false
				if v.Handler.OnWritable != nil {
					v.Handler.OnWritable(v)
				}
			}
			return
		}
		v.armDynRetry()
	})
}

func (v *VI) handleData(f frame) {
	if f.msgID <= v.expected {
		// Duplicate of a delivered frame: re-ack so the sender stops
		// retransmitting it.
		v.n.transmit(f.src, frame{kind: frameHWAck, viID: v.id, src: v.n.nd.ID, msgID: f.msgID}, 40)
		return
	}
	if f.msgID > v.expected+1 {
		// A hole from a loss burst. Selective repeat: accept the frame
		// into the (credit-bounded) pre-posted descriptors and ack it;
		// only the missing frames keep retransmitting. Frames beyond
		// the descriptor window are dropped unacked.
		if f.msgID > v.expected+uint64(v.n.cfg.Credits)*2 {
			return
		}
		if _, dup := v.reorder[f.msgID]; !dup {
			v.reorder[f.msgID] = f
		}
		v.n.transmit(f.src, frame{kind: frameHWAck, viID: v.id, src: v.n.nd.ID, msgID: f.msgID}, 40)
		return
	}
	// In order: ack, deliver, then drain whatever the hole was blocking.
	v.n.transmit(f.src, frame{kind: frameHWAck, viID: v.id, src: v.n.nd.ID, msgID: f.msgID}, 40)
	v.acceptFrame(f)
	for {
		nf, ok := v.reorder[v.expected+1]
		if !ok {
			break
		}
		delete(v.reorder, v.expected+1)
		v.acceptFrame(nf)
	}
}

// acceptFrame validates and delivers one in-order frame.
func (v *VI) acceptFrame(f frame) {
	v.expected = f.msgID

	if f.sizeMismatch {
		// Receive descriptor completes with error status.
		if f.remoteWrite {
			v.n.transmit(f.src, frame{kind: frameRDMAErr, viID: v.id, src: v.n.nd.ID}, 40)
		}
		v.signalError(comm.ErrDescriptorError)
		return
	}
	d := v.n.newDelivered()
	d.Msg = comm.Message{Kind: f.msgKind, Size: f.declaredSize, Payload: f.payload}
	d.Corrupt = f.corrupt
	d.RemoteWrite = f.remoteWrite
	d.vi = v
	if f.corrupt && f.remoteWrite {
		// Valid-but-wrong pointer on a remote write: damage on the
		// target is visible on both ends.
		v.n.transmit(f.src, frame{kind: frameRDMAErr, viID: v.id, src: v.n.nd.ID}, 40)
	}
	// Polled reception adds the main loop's poll interval; deliveries
	// stay in message order either way.
	at := v.n.k.Now()
	if f.remoteWrite {
		at += v.n.cfg.PollDelay
	}
	if at < v.nextDeliverAt {
		at = v.nextDeliverAt
	}
	v.nextDeliverAt = at
	v.n.k.At(at, d.arrive)
}

func (v *VI) handleCredit(released uint64) {
	if released > v.peerReleased {
		v.peerReleased = released
	}
	if v.wantWrite && v.Writable() {
		v.wantWrite = false
		if v.Handler.OnWritable != nil {
			v.Handler.OnWritable(v)
		}
	}
}

// armCreditProbe periodically re-requests the peer's cumulative release
// count while blocked, so a lost credit frame can only delay — never
// deadlock — a sender.
func (v *VI) armCreditProbe() {
	if v.probing {
		return
	}
	v.probing = true
	v.n.k.After(v.n.cfg.HWAckTimeout, v.probe)
}

func (v *VI) probeFired() {
	v.probing = false
	if v.state != viEstablished || !v.wantWrite {
		return
	}
	if v.Writable() {
		v.wantWrite = false
		if v.Handler.OnWritable != nil {
			v.Handler.OnWritable(v)
		}
		return
	}
	v.n.transmit(v.remote, frame{kind: frameCreditProbe, viID: v.id, src: v.n.nd.ID}, 40)
	v.armCreditProbe()
}

// sendCreditUpdate advertises the cumulative release count.
func (v *VI) sendCreditUpdate() {
	v.n.transmit(v.remote, frame{kind: frameCredit, viID: v.id, src: v.n.nd.ID, msgID: v.totalReleased}, 40)
}

// Release returns the receive descriptor of one consumed message to the
// sender as a flow-control credit. The application calls it once per
// delivered message when processing completes.
func (v *VI) Release() {
	if v.state != viEstablished {
		return
	}
	v.totalReleased++
	v.sendCreditUpdate()
}

// Disconnect tears the VI down in an orderly way, notifying the peer (used
// by application teardown while the host is still alive). The local
// OnBreak is not invoked.
func (v *VI) Disconnect() {
	if v.state == viDead {
		return
	}
	v.n.transmit(v.remote, frame{kind: frameDisc, viID: v.id, src: v.n.nd.ID}, 40)
	v.n.dropVI(v)
}

func (v *VI) signalError(err error) {
	if v.errSignaled {
		return
	}
	v.errSignaled = true
	if v.Handler.OnError != nil {
		v.Handler.OnError(v, err)
	}
}

func (v *VI) breakConn(err error) {
	if v.state == viDead {
		return
	}
	v.n.dropVI(v)
	if v.Handler.OnBreak != nil {
		v.Handler.OnBreak(v, err)
	}
}

func (v *VI) cancelTimers() {
	for _, pm := range v.pending {
		pm.timer.Cancel()
	}
	v.pending = make(map[uint64]*pendingMsg)
}

// vanish removes the VI without notifications or unpinning (host crash —
// kernel state is gone anyway).
func (v *VI) vanish() {
	v.state = viDead
	v.cancelTimers()
}
