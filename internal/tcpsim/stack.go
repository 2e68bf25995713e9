// Package tcpsim is a behavioural simulation of a kernel TCP stack, built
// for studying availability rather than wire-accuracy. It reproduces the
// TCP properties the paper identifies as decisive for cluster-server
// performability:
//
//   - a byte-stream abstraction: application message boundaries exist only
//     as length-prefixed framing inside the stream, so an off-by-N size
//     fault desynchronizes everything sent after it;
//   - timeout-and-retry loss handling: packet loss is presumed transient
//     congestion, retransmission backs off exponentially, and a connection
//     is only declared broken after a long abort timeout (many minutes) —
//     which makes TCP fault *detection* far too slow for fail-over;
//   - dynamic kernel-memory use: both transmit and receive paths need
//     skbuf allocations, so kernel memory exhaustion stalls communication
//     in both directions (in contrast to VIA's pre-allocation);
//   - synchronous error reporting for locally detectable bad parameters
//     (EFAULT on a NULL pointer) and reset (RST) generation for segments
//     addressed to dead connections, which is how peers eventually notice
//     a rebooted node.
package tcpsim

import (
	"time"

	"vivo/internal/cluster"
	"vivo/internal/osmodel"
	"vivo/internal/sim"
)

// ProtoName is the cluster-fabric protocol identifier used by this stack.
const ProtoName = "tcp"

// Config holds the stack's tunables. The defaults model a low-latency SAN
// and a Linux-2.2-era TCP.
type Config struct {
	// MSS is the maximum segment payload in bytes.
	MSS int
	// SendBufCap and RecvBufCap are the per-connection socket buffer
	// capacities. A sender blocks when its unacknowledged backlog
	// reaches SendBufCap; a receiver advertises RecvBufCap minus the
	// bytes the application has not consumed yet.
	SendBufCap int
	RecvBufCap int
	// HeaderSize is the per-application-message framing overhead the
	// server writes into the stream (length prefix etc.).
	HeaderSize int
	// SegHeader is the per-segment wire overhead (IP+TCP headers).
	SegHeader int
	// InitialRTO and MaxRTO bound the retransmission timer backoff.
	InitialRTO time.Duration
	MaxRTO     time.Duration
	// AbortAfter is how long a connection retries without any progress
	// before the stack gives up and breaks it (the paper observes 10-15
	// minutes for the stacks of the day).
	AbortAfter time.Duration
	// SynInterval and SynAttempts control active-open retries.
	SynInterval time.Duration
	SynAttempts int
	// SKBufRetry is how often the stack re-attempts kernel-memory
	// allocation while the skbuf fault is active.
	SKBufRetry time.Duration
}

// DefaultConfig returns the configuration used throughout the study.
func DefaultConfig() Config {
	return Config{
		MSS:         8192,
		SendBufCap:  64 << 10,
		RecvBufCap:  64 << 10,
		HeaderSize:  32,
		SegHeader:   40,
		InitialRTO:  200 * time.Millisecond,
		MaxRTO:      10 * time.Second,
		AbortAfter:  13 * time.Minute,
		SynInterval: 3 * time.Second,
		SynAttempts: 3,
		SKBufRetry:  100 * time.Millisecond,
	}
}

// frameKind enumerates the wire frames exchanged between stacks.
type frameKind int

const (
	frameSYN frameKind = iota
	frameSYNACK
	frameDATA
	frameACK // also used for pure window updates
	frameRST
)

// header is a frame's fixed fields.
type header struct {
	kind   frameKind
	connID uint64
	src    int

	// DATA fields
	seq    int64 // first stream byte carried
	length int64 // bytes carried

	// ACK fields
	ackSeq int64 // next expected stream byte
	window int64 // advertised free receive-buffer space
}

// frame is the payload attached to a cluster.Packet, always as a pointer
// to a record from its sender's free list (Stack.frames), so boxing it in
// Packet.Payload allocates nothing. The receiving stack hands the record
// back to owner once it has processed the frame; a frame lost in the
// fabric is simply left to the garbage collector.
type frame struct {
	header
	// recs are the records that end inside a DATA frame's byte range,
	// copied by value from the sender's queue. Their storage stays
	// with the record across reuse.
	recs  []record
	owner *Stack
}

// record is the sender-side bookkeeping for one application message inside
// the stream. Records ride along, by value, with the data frames that
// complete them; this lets the simulation carry message identity without
// serializing payload bytes while keeping exact byte-stream semantics.
type record struct {
	msgKind      int
	payload      any
	declaredSize int   // size the application framing claims
	wireSize     int   // bytes actually occupying the stream
	end          int64 // stream offset one past this record
	corrupt      bool  // payload garbage (off-by-N data pointer)
	declMismatch bool  // wireSize != declaredSize (off-by-N size)
}

// Stack is the per-node kernel TCP state. It survives process exits (the
// kernel resets orphaned connections) and is wiped by node crashes; on boot
// it reinstalls itself automatically.
type Stack struct {
	k   *sim.Kernel
	cl  *cluster.Cluster
	nd  *cluster.Node
	os  *osmodel.OS
	cfg Config

	alive    bool
	conns    map[uint64]*Conn
	listener func(*Conn)
	nextID   uint64
	dials    map[uint64]*dialState

	// Free lists: frames this stack sent whose receivers have
	// processed them, and deliveries the application has released.
	frames []*frame
	delivs []*Delivered
}

type dialState struct {
	conn     *Conn
	cb       func(*Conn, error)
	attempts int
	timer    sim.Event
}

// NewStack creates and installs the TCP stack for a node.
func NewStack(k *sim.Kernel, cl *cluster.Cluster, nd *cluster.Node, os *osmodel.OS, cfg Config) *Stack {
	s := &Stack{k: k, cl: cl, nd: nd, os: os, cfg: cfg}
	s.install()
	nd.OnCrash(func() { s.teardown() })
	nd.OnBoot(func() { s.install() })
	return s
}

func (s *Stack) install() {
	s.alive = true
	s.conns = make(map[uint64]*Conn)
	s.dials = make(map[uint64]*dialState)
	s.listener = nil
	s.nd.RegisterProto(ProtoName, s.receive)
}

func (s *Stack) teardown() {
	s.alive = false
	for _, c := range s.conns {
		c.vanish()
	}
	s.conns = nil
	for _, d := range s.dials {
		d.timer.Cancel()
	}
	s.dials = nil
	s.listener = nil
}

// Alive reports whether the stack's host is up (kernel running).
func (s *Stack) Alive() bool { return s.alive }

// Node returns the host node id.
func (s *Stack) Node() int { return s.nd.ID }

// Config returns the stack configuration.
func (s *Stack) Config() Config { return s.cfg }

// Listen installs the passive-open handler; each fully established inbound
// connection is handed to accept. A nil accept uninstalls the listener,
// after which inbound SYNs are refused with RST (no process listening).
func (s *Stack) Listen(accept func(*Conn)) { s.listener = accept }

// Dial opens a connection to node dst. cb fires exactly once, either with
// an established connection or with an error after SYN retries are
// exhausted (ErrTimeout) — which is what connecting to a dead or
// unreachable host looks like.
func (s *Stack) Dial(dst int, cb func(*Conn, error)) {
	if !s.alive {
		cb(nil, ErrHostDown)
		return
	}
	s.nextID++
	id := uint64(s.nd.ID)<<32 | s.nextID
	c := newConn(s, id, dst, false)
	s.conns[id] = c
	d := &dialState{conn: c, cb: cb}
	s.dials[id] = d
	s.sendSYN(d)
}

func (s *Stack) sendSYN(d *dialState) {
	d.attempts++
	s.transmit(d.conn.remote, header{kind: frameSYN, connID: d.conn.id, src: s.nd.ID}, nil, 64)
	d.timer = s.k.After(s.cfg.SynInterval, func() {
		if !s.alive {
			return
		}
		if _, live := s.dials[d.conn.id]; !live {
			return
		}
		if d.attempts >= s.cfg.SynAttempts {
			delete(s.dials, d.conn.id)
			delete(s.conns, d.conn.id)
			d.conn.state = stDead
			d.cb(nil, ErrTimeout)
			return
		}
		s.sendSYN(d)
	})
}

// transmit puts a frame on the fabric if kernel memory is available,
// carrying a copy of recs. Frames that cannot get an skbuf are dropped;
// data-path callers handle their own retry, and dropped acks simply look
// like loss to the peer.
func (s *Stack) transmit(dst int, h header, recs []record, size int) bool {
	if !s.alive || !s.os.AllocSKBuf() {
		return false
	}
	f := s.newFrame()
	f.header = h
	f.recs = append(f.recs, recs...)
	s.cl.Transmit(cluster.Packet{Src: s.nd.ID, Dst: dst, Size: size, Proto: ProtoName, Payload: f})
	return true
}

func (s *Stack) newFrame() *frame {
	if n := len(s.frames); n > 0 {
		f := s.frames[n-1]
		s.frames[n-1] = nil
		s.frames = s.frames[:n-1]
		return f
	}
	return &frame{owner: s}
}

// release hands a processed frame back to the stack that sent it,
// dropping the payloads its records reference.
func (f *frame) release() {
	clear(f.recs)
	f.recs = f.recs[:0]
	f.owner.frames = append(f.owner.frames, f)
}

// receive is the fabric-side entry point for all frames addressed to this
// node. Receive processing itself needs kernel memory: during the skbuf
// fault every arriving frame is dropped, so the faulty node also stops
// acknowledging — which is what freezes its peers. The frame goes back to
// its sender's free list only after processing, since DATA handling
// reads its records.
func (s *Stack) receive(p cluster.Packet) {
	f, ok := p.Payload.(*frame)
	if !ok {
		return
	}
	if s.alive && (f.kind == frameRST || s.os.AllocSKBuf()) {
		s.dispatch(f)
	}
	f.release()
}

func (s *Stack) dispatch(f *frame) {
	switch f.kind {
	case frameSYN:
		s.onSYN(f)
	case frameSYNACK:
		s.onSYNACK(f)
	case frameDATA:
		s.onData(f)
	case frameACK:
		s.onAck(f)
	case frameRST:
		s.onRST(f)
	}
}

func (s *Stack) onSYN(f *frame) {
	if c, ok := s.conns[f.connID]; ok {
		// Duplicate SYN: re-send the SYNACK.
		if c.state == stEstablished {
			s.transmit(f.src, header{kind: frameSYNACK, connID: f.connID, src: s.nd.ID}, nil, 64)
		}
		return
	}
	if s.listener == nil {
		s.transmit(f.src, header{kind: frameRST, connID: f.connID, src: s.nd.ID}, nil, 40)
		return
	}
	c := newConn(s, f.connID, f.src, true)
	c.state = stEstablished
	s.conns[f.connID] = c
	s.transmit(f.src, header{kind: frameSYNACK, connID: f.connID, src: s.nd.ID}, nil, 64)
	s.listener(c)
}

func (s *Stack) onSYNACK(f *frame) {
	d, ok := s.dials[f.connID]
	if !ok {
		return // duplicate SYNACK after establishment
	}
	delete(s.dials, f.connID)
	d.timer.Cancel()
	d.conn.state = stEstablished
	d.cb(d.conn, nil)
}

func (s *Stack) onData(f *frame) {
	c, ok := s.conns[f.connID]
	if !ok || c.state != stEstablished {
		s.transmit(f.src, header{kind: frameRST, connID: f.connID, src: s.nd.ID}, nil, 40)
		return
	}
	c.handleData(f)
}

func (s *Stack) onAck(f *frame) {
	c, ok := s.conns[f.connID]
	if !ok || c.state != stEstablished {
		return
	}
	c.handleAck(f)
}

func (s *Stack) onRST(f *frame) {
	if d, ok := s.dials[f.connID]; ok {
		delete(s.dials, f.connID)
		delete(s.conns, f.connID)
		d.timer.Cancel()
		d.conn.state = stDead
		d.cb(nil, ErrRefused)
		return
	}
	if c, ok := s.conns[f.connID]; ok {
		c.abort(ErrReset, false)
	}
}
