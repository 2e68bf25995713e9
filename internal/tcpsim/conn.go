package tcpsim

import (
	"errors"
	"time"

	"vivo/internal/comm"
	"vivo/internal/sim"
)

// Errors specific to the TCP simulator.
var (
	// ErrTimeout: active open gave up (SYNs unanswered) or the abort
	// timer expired after minutes without progress.
	ErrTimeout = errors.New("tcpsim: timed out")
	// ErrRefused: the peer answered with RST (no listener / unknown
	// connection).
	ErrRefused = errors.New("tcpsim: connection refused")
	// ErrReset: an established connection was reset by the peer.
	ErrReset = errors.New("tcpsim: connection reset by peer")
	// ErrHostDown: the local host is down.
	ErrHostDown = errors.New("tcpsim: host down")
)

type connState int

const (
	stSynSent connState = iota
	stEstablished
	stDead
)

// Handler carries the application callbacks for one connection. All fields
// may be nil.
type Handler struct {
	// OnMessage delivers one application message in stream order.
	// Delivered.Corrupt marks payload garbage from an off-by-N pointer.
	// The receive buffer space stays occupied until the message's
	// Release method is called.
	OnMessage func(c *Conn, d *Delivered)
	// OnWritable fires after Send returned ErrWouldBlock and buffer
	// space (or kernel memory) became available again.
	OnWritable func(c *Conn)
	// OnBreak fires once when the connection dies: peer reset, or abort
	// after the (long) retry timeout.
	OnBreak func(c *Conn, err error)
	// OnFatal fires when the byte stream desynchronizes (framing
	// corruption after an off-by-N size fault). The application is
	// expected to fail-fast.
	OnFatal func(c *Conn, err error)
}

// Delivered is one application message handed to OnMessage.
type Delivered struct {
	Msg     comm.Message
	Corrupt bool

	conn  *Conn
	bytes int64
	freed bool
}

// Release frees this message's receive-buffer space. The application calls
// it when it finishes processing the message; until then the space counts
// against the advertised window, which is how a stopped or overloaded
// application throttles (and eventually freezes) its peers. Releases may
// happen in any order; duplicate calls are ignored.
func (d *Delivered) Release() {
	if d.freed || d.conn == nil {
		return
	}
	d.freed = true
	c := d.conn
	c.consumed += d.bytes
	if c.state != stEstablished {
		return
	}
	if c.lastAdvWin < int64(c.s.cfg.MSS) && c.recvBufFree() >= int64(c.s.cfg.MSS) {
		c.sendAck()
	}
}

// Conn is one simulated TCP connection endpoint.
type Conn struct {
	s       *Stack
	id      uint64
	remote  int
	passive bool
	state   connState
	Handler Handler

	// --- sender side ---
	sendQ      []*record // queued, not yet fully acked
	sndEnd     int64     // stream offset one past everything queued
	sndNext    int64     // next byte to transmit
	sndUna     int64     // oldest unacknowledged byte
	peerWindow int64
	rto        time.Duration
	rtoTimer   sim.Event
	noProgress sim.Time // when the current stall started (-1 = none)
	wantWrite  bool
	skbufWait  sim.Event

	// --- receiver side ---
	rcvNext      int64     // next expected stream byte
	consumed     int64     // stream bytes released by the application
	pendingRecs  []*record // records completed but not yet delivered
	lastAdvWin   int64
	desynced     bool
	fatalSignled bool
}

func newConn(s *Stack, id uint64, remote int, passive bool) *Conn {
	return &Conn{
		s:          s,
		id:         id,
		remote:     remote,
		passive:    passive,
		state:      stSynSent,
		peerWindow: int64(s.cfg.RecvBufCap),
		rto:        s.cfg.InitialRTO,
		noProgress: -1,
		lastAdvWin: int64(s.cfg.RecvBufCap),
	}
}

// Remote returns the peer node id.
func (c *Conn) Remote() int { return c.remote }

// Established reports whether the connection is usable.
func (c *Conn) Established() bool { return c.state == stEstablished }

// sendBufUsage is the number of stream bytes accepted from the application
// and not yet acknowledged by the peer.
func (c *Conn) sendBufUsage() int64 { return c.sndEnd - c.sndUna }

// Writable reports whether a maximal application message would currently
// be accepted by Send.
func (c *Conn) Writable() bool {
	return c.state == stEstablished &&
		c.sendBufUsage() < int64(c.s.cfg.SendBufCap) &&
		c.s.os.AllocSKBuf()
}

// Send queues one application message on the byte stream.
//
// Error semantics mirror the kernel interface:
//   - a NULL data pointer is detected synchronously: ErrEFAULT, nothing
//     is sent;
//   - a full socket buffer or failed kernel-memory allocation returns
//     ErrWouldBlock and arms a writable notification;
//   - a dead connection returns ErrBroken.
//
// Off-by-N faults are *not* errors here — that is the point: the kernel
// happily moves the wrong bytes, and the damage surfaces later at the
// receiver (garbage payload, or stream desync when the length prefix and
// the actual byte count disagree).
func (c *Conn) Send(p comm.SendParams) error {
	if c.state != stEstablished {
		return comm.ErrBroken
	}
	if p.NullPtr {
		return comm.ErrEFAULT
	}
	wire := int64(p.WireSize() + c.s.cfg.HeaderSize)
	if c.sendBufUsage()+wire > int64(c.s.cfg.SendBufCap) {
		c.wantWrite = true
		return comm.ErrWouldBlock
	}
	if !c.s.os.AllocSKBuf() {
		c.wantWrite = true
		c.armSKBufRetry()
		return comm.ErrWouldBlock
	}
	rec := &record{
		msgKind:      p.Msg.Kind,
		payload:      p.Msg.Payload,
		declaredSize: p.Msg.Size,
		wireSize:     int(wire),
		corrupt:      p.PtrOffset != 0,
		declMismatch: p.SizeOffset != 0,
	}
	c.sndEnd += wire
	rec.end = c.sndEnd
	c.sendQ = append(c.sendQ, rec)
	c.pump()
	return nil
}

func (c *Conn) armSKBufRetry() {
	if c.skbufWait.Pending() {
		return
	}
	c.skbufWait = c.s.k.After(c.s.cfg.SKBufRetry, func() {
		if c.state != stEstablished {
			return
		}
		if c.s.os.AllocSKBuf() {
			c.pump()
			c.notifyWritable()
		} else {
			c.armSKBufRetry()
		}
	})
}

func (c *Conn) notifyWritable() {
	if c.wantWrite && c.Writable() {
		c.wantWrite = false
		if c.Handler.OnWritable != nil {
			c.Handler.OnWritable(c)
		}
	}
}

// pump transmits as much queued data as the peer window and kernel memory
// allow, one MSS-sized segment at a time.
func (c *Conn) pump() {
	if c.state != stEstablished {
		return
	}
	for c.sndNext < c.sndEnd {
		inFlight := c.sndNext - c.sndUna
		if inFlight >= c.peerWindow {
			// Zero/exhausted window: rely on the peer's window
			// update; the RTO timer doubles as window probe.
			break
		}
		seg := c.sndEnd - c.sndNext
		if seg > int64(c.s.cfg.MSS) {
			seg = int64(c.s.cfg.MSS)
		}
		if seg > c.peerWindow-inFlight {
			seg = c.peerWindow - inFlight
		}
		if !c.transmitSegment(c.sndNext, seg) {
			c.armSKBufRetry()
			break
		}
		c.sndNext += seg
	}
	if c.sndUna < c.sndEnd {
		c.armRTO()
	}
}

// transmitSegment sends stream bytes [from, from+length) plus the records
// that end inside that range.
func (c *Conn) transmitSegment(from, length int64) bool {
	var recs []*record
	for _, r := range c.sendQ {
		if r.end > from && r.end <= from+length {
			recs = append(recs, r)
		}
	}
	f := frame{
		kind:    frameDATA,
		connID:  c.id,
		src:     c.s.nd.ID,
		seq:     from,
		length:  length,
		records: recs,
	}
	return c.s.transmit(c.remote, f, int(length)+c.s.cfg.SegHeader)
}

func (c *Conn) armRTO() {
	if c.rtoTimer.Pending() {
		return
	}
	if c.noProgress < 0 {
		c.noProgress = c.s.k.Now()
	}
	c.rtoTimer = c.s.k.After(c.rto, func() {
		if c.state != stEstablished {
			return
		}
		if c.sndUna >= c.sndEnd {
			return // everything acked in the meantime
		}
		if c.s.k.Now()-c.noProgress >= c.s.cfg.AbortAfter {
			// Minutes of retries without progress: give up. This
			// is the slow path the paper blames for TCP's poor
			// fault detection.
			c.abort(ErrTimeout, true)
			return
		}
		// Go-back-N: rewind to the left edge and resend the window.
		c.sndNext = c.sndUna
		c.pump()
		if c.sndNext == c.sndUna {
			// Zero peer window: send one probe segment anyway.
			seg := c.sndEnd - c.sndUna
			if seg > int64(c.s.cfg.MSS) {
				seg = int64(c.s.cfg.MSS)
			}
			c.transmitSegment(c.sndUna, seg)
		}
		c.rto *= 2
		if c.rto > c.s.cfg.MaxRTO {
			c.rto = c.s.cfg.MaxRTO
		}
		c.armRTO()
	})
}

func (c *Conn) handleAck(f frame) {
	c.peerWindow = f.window
	if f.ackSeq > c.sndUna {
		c.sndUna = f.ackSeq
		if c.sndNext < c.sndUna {
			c.sndNext = c.sndUna
		}
		// Progress: reset backoff and the abort clock.
		c.rto = c.s.cfg.InitialRTO
		c.noProgress = -1
		c.rtoTimer.Cancel()
		// Drop fully acknowledged records.
		i := 0
		for i < len(c.sendQ) && c.sendQ[i].end <= c.sndUna {
			i++
		}
		c.sendQ = c.sendQ[i:]
	}
	c.pump()
	c.notifyWritable()
}

func (c *Conn) recvBufFree() int64 {
	return int64(c.s.cfg.RecvBufCap) - (c.rcvNext - c.consumed)
}

func (c *Conn) handleData(f frame) {
	if f.seq > c.rcvNext {
		// A gap: preceding bytes were lost. The sender's go-back-N
		// retransmission will resend in order; ignore and re-ack.
		c.sendAck()
		return
	}
	end := f.seq + f.length
	if end <= c.rcvNext {
		// Pure duplicate.
		c.sendAck()
		return
	}
	fresh := end - c.rcvNext
	if fresh > c.recvBufFree() {
		// Receiver overrun (peer ignored our window): drop.
		c.sendAck()
		return
	}
	c.rcvNext = end
	for _, r := range f.records {
		if r.end <= c.rcvNext {
			c.enqueueRecord(r)
		}
	}
	c.sendAck()
	c.deliver()
}

func (c *Conn) enqueueRecord(r *record) {
	for _, p := range c.pendingRecs {
		if p == r || p.end == r.end {
			return // duplicate via retransmission
		}
	}
	c.pendingRecs = append(c.pendingRecs, r)
}

func (c *Conn) sendAck() {
	win := c.recvBufFree()
	c.lastAdvWin = win
	c.s.transmit(c.remote, frame{
		kind:   frameACK,
		connID: c.id,
		src:    c.s.nd.ID,
		ackSeq: c.rcvNext,
		window: win,
	}, 40)
}

// deliver hands completed records to the application in stream order.
func (c *Conn) deliver() {
	for len(c.pendingRecs) > 0 {
		r := c.pendingRecs[0]
		if r.end > c.rcvNext {
			break
		}
		c.pendingRecs = c.pendingRecs[1:]
		if c.desynced {
			// Everything after the framing error is garbage.
			c.signalFatal(comm.ErrStreamCorrupt)
			return
		}
		if r.declMismatch {
			// This read misaligns the stream; the next header the
			// application parses will be garbage.
			c.desynced = true
		}
		d := &Delivered{
			Msg: comm.Message{
				Kind:    r.msgKind,
				Size:    r.declaredSize,
				Payload: r.payload,
			},
			Corrupt: r.corrupt,
			conn:    c,
			bytes:   int64(r.wireSize),
		}
		if c.Handler.OnMessage != nil {
			c.Handler.OnMessage(c, d)
		} else {
			d.Release()
		}
		if c.state != stEstablished {
			return
		}
	}
}

func (c *Conn) signalFatal(err error) {
	if c.fatalSignled {
		return
	}
	c.fatalSignled = true
	if c.Handler.OnFatal != nil {
		c.Handler.OnFatal(c, err)
	}
}

// Abort resets the connection immediately, notifying the peer with RST.
// The local OnBreak is NOT invoked (the caller chose to close).
func (c *Conn) Abort() {
	if c.state == stDead {
		return
	}
	c.s.transmit(c.remote, frame{kind: frameRST, connID: c.id, src: c.s.nd.ID}, 40)
	c.die()
}

// abort kills the connection due to an observed failure and tells the app.
func (c *Conn) abort(err error, sendRST bool) {
	if c.state == stDead {
		return
	}
	if sendRST {
		c.s.transmit(c.remote, frame{kind: frameRST, connID: c.id, src: c.s.nd.ID}, 40)
	}
	c.die()
	if c.Handler.OnBreak != nil {
		c.Handler.OnBreak(c, err)
	}
}

// vanish removes the connection without any notification (host crash).
func (c *Conn) vanish() { c.die() }

func (c *Conn) die() {
	c.state = stDead
	c.rtoTimer.Cancel()
	c.skbufWait.Cancel()
	if c.s.conns != nil {
		delete(c.s.conns, c.id)
	}
}
