package tcpsim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"vivo/internal/cluster"
	"vivo/internal/comm"
	"vivo/internal/osmodel"
	"vivo/internal/sim"
)

// rig is a 4-node cluster with a TCP stack and OS model per node.
type rig struct {
	k      *sim.Kernel
	cl     *cluster.Cluster
	os     []*osmodel.OS
	stacks []*Stack
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig())
	r := &rig{k: k, cl: cl}
	for i := 0; i < 4; i++ {
		o := osmodel.New(k, cl.Node(i), 100<<20)
		r.os = append(r.os, o)
		r.stacks = append(r.stacks, NewStack(k, cl, cl.Node(i), o, DefaultConfig()))
	}
	return r
}

// connect establishes a connection 0 -> 1 and returns both ends.
func (r *rig) connect(t *testing.T, src, dst int) (*Conn, *Conn) {
	t.Helper()
	var accepted, dialed *Conn
	r.stacks[dst].Listen(func(c *Conn) { accepted = c })
	r.stacks[src].Dial(dst, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		dialed = c
	})
	r.k.Run(r.k.Now() + time.Second)
	if dialed == nil || accepted == nil {
		t.Fatal("connection not established")
	}
	return dialed, accepted
}

func msg(kind, size int, payload any) comm.SendParams {
	return comm.SendParams{Msg: comm.Message{Kind: kind, Size: size, Payload: payload}}
}

func TestConnectAndExchange(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	if a.Remote() != 1 || b.Remote() != 0 {
		t.Fatalf("remotes = %d,%d", a.Remote(), b.Remote())
	}
	var got []Delivered // copies: Release recycles the record
	b.Handler.OnMessage = func(c *Conn, d *Delivered) {
		got = append(got, *d)
		d.Release()
	}
	for i := 0; i < 5; i++ {
		if err := a.Send(msg(7, 1000, i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	r.k.Run(r.k.Now() + time.Second)
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, d := range got {
		if d.Msg.Kind != 7 || d.Msg.Size != 1000 || d.Msg.Payload != i || d.Corrupt {
			t.Fatalf("message %d = %+v", i, d)
		}
	}
}

func TestBidirectional(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	gotA, gotB := 0, 0
	a.Handler.OnMessage = func(c *Conn, d *Delivered) { gotA++; d.Release() }
	b.Handler.OnMessage = func(c *Conn, d *Delivered) { gotB++; d.Release() }
	for i := 0; i < 3; i++ {
		if err := a.Send(msg(1, 100, nil)); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(msg(2, 100, nil)); err != nil {
			t.Fatal(err)
		}
	}
	r.k.Run(r.k.Now() + time.Second)
	if gotA != 3 || gotB != 3 {
		t.Fatalf("gotA=%d gotB=%d, want 3 each", gotA, gotB)
	}
}

func TestSendBufferFullThenWritable(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var pendingRelease []*Delivered
	b.Handler.OnMessage = func(c *Conn, d *Delivered) { pendingRelease = append(pendingRelease, d) }
	writable := 0
	a.Handler.OnWritable = func(c *Conn) { writable++ }

	// Stuff the stream without the receiver consuming: 64 KiB send buf +
	// 64 KiB recv buf fill after ~16 8 KiB messages.
	sent, blocked := 0, false
	for i := 0; i < 64; i++ {
		err := a.Send(msg(1, 8192, nil))
		if err == comm.ErrWouldBlock {
			blocked = true
			break
		}
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		sent++
		r.k.Run(r.k.Now() + 10*time.Millisecond)
	}
	if !blocked {
		t.Fatal("never hit ErrWouldBlock with both buffers full")
	}
	// Receiver consumes everything delivered so far.
	for _, d := range pendingRelease {
		d.Release()
	}
	r.k.Run(r.k.Now() + 5*time.Second)
	if writable == 0 {
		t.Fatal("no OnWritable after the peer drained")
	}
}

func TestNullPointerIsSynchronousEFAULT(t *testing.T) {
	r := newRig(t)
	a, _ := r.connect(t, 0, 1)
	err := a.Send(comm.SendParams{Msg: comm.Message{Kind: 1, Size: 100}, NullPtr: true})
	if !errors.Is(err, comm.ErrEFAULT) {
		t.Fatalf("err = %v, want ErrEFAULT", err)
	}
	if !a.Established() {
		t.Fatal("EFAULT must not kill the connection")
	}
}

func TestOffByNSizeDesyncsStream(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var got []Delivered // copies: Release recycles the record
	var fatal error
	b.Handler.OnMessage = func(c *Conn, d *Delivered) { got = append(got, *d); d.Release() }
	b.Handler.OnFatal = func(c *Conn, err error) { fatal = err }

	if err := a.Send(msg(1, 1000, "good")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(comm.SendParams{Msg: comm.Message{Kind: 2, Size: 1000, Payload: "bad"}, SizeOffset: 37}); err != nil {
		t.Fatalf("off-by-N size must not fail at the sender: %v", err)
	}
	if err := a.Send(msg(3, 1000, "after")); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + time.Second)
	if fatal == nil || !errors.Is(fatal, comm.ErrStreamCorrupt) {
		t.Fatalf("fatal = %v, want ErrStreamCorrupt", fatal)
	}
	// The message before the fault arrives intact; everything after the
	// faulted read is garbage and must not be delivered as messages.
	if len(got) < 1 || got[0].Msg.Payload != "good" {
		t.Fatalf("pre-fault message lost: %v", got)
	}
	for _, d := range got {
		if d.Msg.Payload == "after" {
			t.Fatal("message after the desync point was delivered")
		}
	}
}

func TestOffByNPointerDeliversCorrupt(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var got []Delivered // copies: Release recycles the record
	b.Handler.OnMessage = func(c *Conn, d *Delivered) { got = append(got, *d); d.Release() }
	if err := a.Send(comm.SendParams{Msg: comm.Message{Kind: 1, Size: 500}, PtrOffset: 40}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(msg(2, 500, nil)); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + time.Second)
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2 (framing intact)", len(got))
	}
	if !got[0].Corrupt || got[1].Corrupt {
		t.Fatalf("corrupt flags = %v,%v", got[0].Corrupt, got[1].Corrupt)
	}
}

func TestTransientLinkFaultRetransmitsNoBreak(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	got := 0
	var broke error
	b.Handler.OnMessage = func(c *Conn, d *Delivered) { got++; d.Release() }
	a.Handler.OnBreak = func(c *Conn, err error) { broke = err }

	r.cl.Node(1).Link.Up = false
	if err := a.Send(msg(1, 1000, nil)); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + 60*time.Second)
	if got != 0 {
		t.Fatal("delivered across a dead link")
	}
	if broke != nil {
		t.Fatalf("connection broke during a 60s fault: %v (TCP should retry for minutes)", broke)
	}
	r.cl.Node(1).Link.Up = true
	r.k.Run(r.k.Now() + 30*time.Second)
	if got != 1 {
		t.Fatalf("message not retransmitted after link recovery; got=%d", got)
	}
	if broke != nil {
		t.Fatalf("connection broke after recovery: %v", broke)
	}
}

func TestAbortAfterLongOutage(t *testing.T) {
	r := newRig(t)
	a, _ := r.connect(t, 0, 1)
	var broke error
	var brokeAt sim.Time
	a.Handler.OnBreak = func(c *Conn, err error) { broke, brokeAt = err, r.k.Now() }
	r.cl.Node(1).Link.Up = false
	start := r.k.Now()
	if err := a.Send(msg(1, 1000, nil)); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + 30*time.Minute)
	if broke == nil {
		t.Fatal("connection never aborted after 30 min outage")
	}
	if !errors.Is(broke, ErrTimeout) {
		t.Fatalf("break reason = %v, want ErrTimeout", broke)
	}
	elapsed := brokeAt - start
	cfg := DefaultConfig()
	if elapsed < cfg.AbortAfter || elapsed > cfg.AbortAfter+2*cfg.MaxRTO {
		t.Fatalf("abort after %v, want about %v", elapsed, cfg.AbortAfter)
	}
}

func TestAbortPropagatesRST(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var broke error
	b.Handler.OnBreak = func(c *Conn, err error) { broke = err }
	a.Abort()
	r.k.Run(r.k.Now() + time.Second)
	if !errors.Is(broke, ErrReset) {
		t.Fatalf("peer break = %v, want ErrReset", broke)
	}
	if err := a.Send(msg(1, 10, nil)); !errors.Is(err, comm.ErrBroken) {
		t.Fatalf("send on aborted conn = %v, want ErrBroken", err)
	}
}

func TestDialDeadHostTimesOut(t *testing.T) {
	r := newRig(t)
	r.cl.Node(2).Crash()
	var got error
	done := false
	r.stacks[0].Dial(2, func(c *Conn, err error) { got, done = err, true })
	r.k.Run(r.k.Now() + time.Minute)
	if !done || !errors.Is(got, ErrTimeout) {
		t.Fatalf("dial result = %v done=%v, want ErrTimeout", got, done)
	}
}

func TestDialNoListenerRefused(t *testing.T) {
	r := newRig(t)
	var got error
	r.stacks[0].Dial(3, func(c *Conn, err error) { got = err })
	r.k.Run(r.k.Now() + time.Minute)
	if !errors.Is(got, ErrRefused) {
		t.Fatalf("dial result = %v, want ErrRefused", got)
	}
}

// The paper's node-crash timing quirk: TCP peers of a crashed node do not
// learn of the crash while it is down; the RST from the rebooted kernel,
// triggered by a backed-off retransmission, is what finally breaks the
// connection.
func TestNodeCrashDetectedOnlyAfterRebootRST(t *testing.T) {
	r := newRig(t)
	a, _ := r.connect(t, 0, 1)
	var broke error
	var brokeAt sim.Time
	a.Handler.OnBreak = func(c *Conn, err error) { broke, brokeAt = err, r.k.Now() }

	crashAt := r.k.Now()
	r.cl.Node(1).Reboot() // down for 60s, then kernel back up
	if err := a.Send(msg(1, 1000, nil)); err != nil {
		t.Fatal(err)
	}
	r.k.Run(crashAt + 55*time.Second)
	if broke != nil {
		t.Fatalf("break while node still down: %v (nothing can signal it)", broke)
	}
	r.k.Run(crashAt + 3*time.Minute)
	if !errors.Is(broke, ErrReset) {
		t.Fatalf("break = %v, want ErrReset from rebooted kernel", broke)
	}
	if brokeAt < crashAt+60*time.Second {
		t.Fatalf("break at %v, before reboot completed", brokeAt)
	}
}

func TestSKBufFaultStallsBothDirections(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	got := 0
	b.Handler.OnMessage = func(c *Conn, d *Delivered) { got++; d.Release() }

	// Fault node 0's kernel memory: its sends block...
	r.os[0].SetSKBufFault(true)
	if err := a.Send(msg(1, 100, nil)); !errors.Is(err, comm.ErrWouldBlock) {
		t.Fatalf("send during skbuf fault = %v, want ErrWouldBlock", err)
	}
	// ...and traffic *to* it is dropped (no skbufs for reception), so the
	// peer's messages stall too.
	gotA := 0
	a.Handler.OnMessage = func(c *Conn, d *Delivered) { gotA++; d.Release() }
	if err := b.Send(msg(2, 100, nil)); err != nil {
		t.Fatalf("peer send should queue locally fine: %v", err)
	}
	r.k.Run(r.k.Now() + 10*time.Second)
	if gotA != 0 {
		t.Fatal("message delivered into a node that cannot allocate skbufs")
	}

	// Repair: both directions drain, and the blocked sender is notified.
	writable := false
	a.Handler.OnWritable = func(c *Conn) { writable = true }
	r.os[0].SetSKBufFault(false)
	r.k.Run(r.k.Now() + 30*time.Second)
	if gotA != 1 {
		t.Fatalf("peer's message not delivered after repair; gotA=%d", gotA)
	}
	if !writable {
		t.Fatal("no writable notification after repair")
	}
	if err := a.Send(msg(3, 100, nil)); err != nil {
		t.Fatalf("send after repair: %v", err)
	}
	r.k.Run(r.k.Now() + 5*time.Second)
	if got != 1 {
		t.Fatalf("post-repair send not delivered; got=%d", got)
	}
}

func TestReceiverNotConsumingClosesWindow(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	delivered := 0
	var deliv []*Delivered
	b.Handler.OnMessage = func(c *Conn, d *Delivered) { delivered++; deliv = append(deliv, d) }

	// Without Release, at most sendbuf+recvbuf bytes ever move.
	blocked := false
	for i := 0; i < 40; i++ {
		if err := a.Send(msg(1, 8192, nil)); errors.Is(err, comm.ErrWouldBlock) {
			blocked = true
			break
		}
		r.k.Run(r.k.Now() + 20*time.Millisecond)
	}
	if !blocked {
		t.Fatal("sender never blocked against a non-consuming receiver")
	}
	maxDeliverable := (64 << 10) / (8192 + 32)
	if delivered > maxDeliverable {
		t.Fatalf("delivered %d messages > recv buffer capacity %d", delivered, maxDeliverable)
	}
	// Consuming reopens the window and traffic resumes.
	for _, d := range deliv {
		d.Release()
	}
	before := delivered
	r.k.Run(r.k.Now() + 10*time.Second)
	if delivered <= before {
		t.Fatal("window update after Release did not resume delivery")
	}
}

// Property: any sequence of message sizes is delivered exactly once, in
// order, with kind and declared size preserved (byte-stream reassembly and
// record bookkeeping are lossless under healthy conditions).
func TestPropertyStreamLossless(t *testing.T) {
	f := func(sizes []uint16) bool {
		k := sim.New(11)
		cl := cluster.New(k, cluster.DefaultConfig())
		var stacks []*Stack
		for i := 0; i < 2; i++ {
			o := osmodel.New(k, cl.Node(i), 100<<20)
			stacks = append(stacks, NewStack(k, cl, cl.Node(i), o, DefaultConfig()))
		}
		var src, dst *Conn
		stacks[1].Listen(func(c *Conn) { dst = c })
		stacks[0].Dial(1, func(c *Conn, err error) { src = c })
		k.Run(k.Now() + time.Second)
		if src == nil || dst == nil {
			return false
		}
		var got []comm.Message
		dst.Handler.OnMessage = func(c *Conn, d *Delivered) {
			got = append(got, d.Msg)
			d.Release()
		}
		if len(sizes) > 50 {
			sizes = sizes[:50]
		}
		want := make([]comm.Message, 0, len(sizes))
		i := 0
		var feed func()
		feed = func() {
			for i < len(sizes) {
				m := comm.Message{Kind: i, Size: int(sizes[i]) % 9000, Payload: i}
				if err := src.Send(comm.SendParams{Msg: m}); err != nil {
					if errors.Is(err, comm.ErrWouldBlock) {
						src.Handler.OnWritable = func(c *Conn) { feed() }
						return
					}
					return
				}
				want = append(want, m)
				i++
			}
		}
		feed()
		k.Run(k.Now() + time.Minute)
		if len(got) != len(want) || len(want) != len(sizes) {
			return false
		}
		for j := range got {
			if got[j] != want[j] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Regression mirror of the VIA loss-burst test: a transient link glitch
// mid-stream must lose nothing — go-back-N retransmission recovers the
// stream in order and the window reopens fully.
func TestTransientGlitchStreamLossless(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var got []int
	b.Handler.OnMessage = func(c *Conn, d *Delivered) {
		got = append(got, d.Msg.Payload.(int))
		d.Release()
	}
	next := 0
	blocked := false
	a.Handler.OnWritable = func(c *Conn) { blocked = false }
	feed := func() {
		if blocked {
			return
		}
		for i := 0; i < 4; i++ {
			err := a.Send(msg(1, 2048, next))
			if errors.Is(err, comm.ErrWouldBlock) {
				blocked = true
				return
			}
			if err != nil {
				t.Fatalf("send: %v", err)
			}
			next++
		}
	}
	tick := sim.NewTicker(r.k, 5*time.Millisecond, feed)
	tick.Start()
	r.k.After(100*time.Millisecond, func() { r.cl.Node(1).Link.Up = false })
	r.k.After(350*time.Millisecond, func() { r.cl.Node(1).Link.Up = true })
	r.k.Run(10 * time.Second)
	tick.Stop()
	r.k.Run(2 * time.Minute) // allow backed-off retransmissions to finish

	if !a.Established() || !b.Established() {
		t.Fatal("glitch broke the connection (abort timeout is minutes away)")
	}
	if len(got) != next {
		t.Fatalf("delivered %d of %d sent", len(got), next)
	}
	for i, p := range got {
		if p != i {
			t.Fatalf("out of order at %d: %d", i, p)
		}
	}
	if !a.Writable() {
		t.Fatal("window did not reopen after recovery")
	}
}

func TestDuplicateSYNReacksNotDuplicateConn(t *testing.T) {
	r := newRig(t)
	accepts := 0
	r.stacks[1].Listen(func(c *Conn) { accepts++ })
	var dialed *Conn
	r.stacks[0].Dial(1, func(c *Conn, err error) { dialed = c })
	r.k.Run(r.k.Now() + 10*time.Second)
	if accepts != 1 || dialed == nil {
		t.Fatalf("accepts=%d dialed=%v", accepts, dialed != nil)
	}
}

func TestAbortIsIdempotent(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	breaks := 0
	b.Handler.OnBreak = func(c *Conn, err error) { breaks++ }
	a.Abort()
	a.Abort()
	r.k.Run(r.k.Now() + time.Second)
	if breaks != 1 {
		t.Fatalf("peer saw %d breaks, want 1", breaks)
	}
	if a.Writable() {
		t.Fatal("aborted conn still writable")
	}
}

func TestWritableReflectsBufferState(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	b.Handler.OnMessage = func(c *Conn, d *Delivered) {} // never release
	if !a.Writable() {
		t.Fatal("fresh conn not writable")
	}
	for i := 0; i < 40; i++ {
		if err := a.Send(msg(1, 8192, nil)); err != nil {
			break
		}
		r.k.Run(r.k.Now() + 5*time.Millisecond)
	}
	// Writable is a coarse signal (any buffer space); an 8 KiB message
	// must still be rejected when the stream is saturated.
	if err := a.Send(msg(1, 8192, nil)); !errors.Is(err, comm.ErrWouldBlock) {
		t.Fatalf("send on saturated stream = %v, want ErrWouldBlock", err)
	}
}

func TestRTORearmDoesNotAllocate(t *testing.T) {
	r := newRig(t)
	a, _ := r.connect(t, 0, 1)
	r.cl.Node(1).Link.Up = false // nothing is acked, so the RTO stays armed
	if err := a.Send(msg(1, 1000, nil)); err != nil {
		t.Fatal(err)
	}
	if !a.rtoTimer.Pending() {
		t.Fatal("no RTO armed for unacked data")
	}
	rearm := func() {
		a.rtoTimer.Cancel()
		a.armRTO()
	}
	rearm() // warm the kernel arena
	if allocs := testing.AllocsPerRun(100, rearm); allocs != 0 {
		t.Fatalf("re-arming the RTO allocates %.1f times", allocs)
	}
}

// Acked records leave sendQ, and delivered ones leave pendingRecs, by
// compaction in place: a steady exchange keeps reusing the same storage
// instead of reallocating on every append.
func TestRecordQueuesReuseStorage(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	b.Handler.OnMessage = func(c *Conn, d *Delivered) { d.Release() }
	exchange := func() {
		for i := 0; i < 3; i++ {
			if err := a.Send(msg(1, 100, i)); err != nil {
				t.Fatal(err)
			}
		}
		r.k.Run(r.k.Now() + 10*time.Millisecond)
		if len(a.sendQ) != 0 || len(b.pendingRecs) != 0 {
			t.Fatalf("sendQ %d, pendingRecs %d after the exchange settled", len(a.sendQ), len(b.pendingRecs))
		}
	}
	exchange()
	sendQ, pending := &a.sendQ[:1][0], &b.pendingRecs[:1][0]
	for i := 0; i < 20; i++ {
		exchange()
	}
	if &a.sendQ[:1][0] != sendQ || &b.pendingRecs[:1][0] != pending {
		t.Fatal("a record queue was reallocated in steady state")
	}
	if a.sendQ[:1][0].payload != nil || b.pendingRecs[:1][0].payload != nil {
		t.Fatal("a dropped record is still referenced by its queue's storage")
	}
}

// Once warm, a message's whole trip allocates nothing: the sender's queue
// entry, its data frame, the receiver's ack frame and the delivery record
// all come from free lists.
func TestMessageRoundTripDoesNotAllocate(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	got := 0
	b.Handler.OnMessage = func(c *Conn, d *Delivered) {
		got++
		d.Release()
	}
	p := msg(1, 8192, &got)
	send := func() {
		if err := a.Send(p); err != nil {
			t.Fatal(err)
		}
		r.k.Run(r.k.Now() + 10*time.Millisecond)
	}
	send() // warm the free lists, the queues and the kernel arena
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("a message send -> deliver -> Release allocates %.1f times", allocs)
	}
	if got != 102 {
		t.Fatalf("delivered %d messages, want 102", got)
	}
}

// ACKs lost across a link flap make the sender retransmit segments whose
// records the receiver already delivered, coalesced with ones it has not
// seen. Each message must still reach the application exactly once with
// its own payload, even though the receiver recycles payload records the
// moment it has read them and the sender reuses them for new messages.
func TestRetransmissionAfterDeliveryDeliversOnce(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	type payload struct{ seq int }
	var free []*payload // recycled payload records, as PRESS keeps them
	newPayload := func(seq int) *payload {
		if n := len(free); n > 0 {
			p := free[n-1]
			free = free[:n-1]
			p.seq = seq
			return p
		}
		return &payload{seq: seq}
	}
	reused := 0
	var got []int
	b.Handler.OnMessage = func(c *Conn, d *Delivered) {
		p := d.Msg.Payload.(*payload)
		got = append(got, p.seq)
		d.Release()
		*p = payload{seq: -1}
		free = append(free, p)
	}
	sent := 0
	send := func() {
		if len(free) > 0 {
			reused++
		}
		if err := a.Send(msg(1, 1000, newPayload(sent))); err != nil {
			t.Fatalf("send %d: %v", sent, err)
		}
		sent++
	}
	// Message 0 arrives and is delivered; the link goes down while its
	// ACK is in flight and before message 1 arrives. Message 2, which
	// takes message 0's payload record, is lost too. Nothing reaches the
	// receiver until the RTO resends all three in one segment from
	// byte 0.
	send()
	for len(got) == 0 {
		r.k.Step() // the receiver acks before it delivers
	}
	send()
	r.cl.Node(1).Link.Up = false
	r.k.Run(r.k.Now() + 50*time.Millisecond)
	send()
	r.k.Run(r.k.Now() + 50*time.Millisecond)
	r.cl.Node(1).Link.Up = true
	r.k.Run(r.k.Now() + 2*time.Second)
	for i := 0; i < 20; i++ {
		send()
		r.k.Run(r.k.Now() + time.Millisecond)
	}
	if reused == 0 {
		t.Fatal("no payload record was reused; the test exercises nothing")
	}
	if len(got) != sent {
		t.Fatalf("delivered %v for %d messages sent", got, sent)
	}
	for i, seq := range got {
		if seq != i {
			t.Fatalf("delivery %d carried message %d: %v", i, seq, got)
		}
	}
}
