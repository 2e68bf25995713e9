package viasim

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

type rig struct {
	k    *sim.Kernel
	cl   *cluster.Cluster
	os   []*osmodel.OS
	nics []*NIC
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig())
	r := &rig{k: k, cl: cl}
	for i := 0; i < 4; i++ {
		o := osmodel.New(k, cl.Node(i), 100<<20)
		r.os = append(r.os, o)
		r.nics = append(r.nics, NewNIC(k, cl, cl.Node(i), o, DefaultConfig()))
	}
	return r
}

func (r *rig) connect(t *testing.T, src, dst int) (*VI, *VI) {
	t.Helper()
	var accepted, dialed *VI
	r.nics[dst].Listen(func(v *VI) { accepted = v })
	r.nics[src].Dial(dst, func(v *VI, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		dialed = v
	})
	r.k.Run(r.k.Now() + time.Second)
	if dialed == nil || accepted == nil {
		t.Fatal("VI not established")
	}
	return dialed, accepted
}

func msg(kind, size int, payload any) comm.SendParams {
	return comm.SendParams{Msg: comm.Message{Kind: kind, Size: size, Payload: payload}}
}

func TestConnectPinsResources(t *testing.T) {
	r := newRig(t)
	perVI := DefaultConfig().RegisteredBytesPerVI()
	a, _ := r.connect(t, 0, 1)
	if r.os[0].Pinned() != perVI {
		t.Fatalf("dialer pinned %d, want %d", r.os[0].Pinned(), perVI)
	}
	if r.os[1].Pinned() != perVI {
		t.Fatalf("acceptor pinned %d, want %d", r.os[1].Pinned(), perVI)
	}
	a.Disconnect()
	r.k.Run(r.k.Now() + time.Second)
	if r.os[0].Pinned() != 0 {
		t.Fatalf("dialer still pins %d after disconnect", r.os[0].Pinned())
	}
}

func TestExchangeInOrder(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var got []*Delivered
	b.Handler.OnMessage = func(v *VI, d *Delivered) { got = append(got, d); v.Release() }
	for i := 0; i < 10; i++ {
		if err := a.Send(msg(3, 8192, i), false); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	r.k.Run(r.k.Now() + time.Second)
	if len(got) != 10 {
		t.Fatalf("delivered %d, want 10", len(got))
	}
	for i, d := range got {
		if d.Msg.Payload != i || d.Msg.Kind != 3 || d.Corrupt || d.RemoteWrite {
			t.Fatalf("message %d = %+v", i, d)
		}
	}
}

func TestRemoteWriteDeliveredViaPolling(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var got []*Delivered
	b.Handler.OnMessage = func(v *VI, d *Delivered) { got = append(got, d); v.Release() }
	if err := a.Send(msg(1, 8192, "rw"), true); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + time.Second)
	if len(got) != 1 || !got[0].RemoteWrite || got[0].Msg.Payload != "rw" {
		t.Fatalf("got = %+v", got)
	}
}

func TestCreditsExhaustAndReturn(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	credits := DefaultConfig().Credits
	delivered := 0
	b.Handler.OnMessage = func(v *VI, d *Delivered) { delivered++ } // no Release yet
	writable := false
	a.Handler.OnWritable = func(v *VI) { writable = true }

	sent := 0
	for i := 0; i < credits+10; i++ {
		err := a.Send(msg(1, 1000, nil), false)
		if errors.Is(err, comm.ErrWouldBlock) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if sent != credits {
		t.Fatalf("sent %d before blocking, want exactly %d credits", sent, credits)
	}
	r.k.Run(r.k.Now() + time.Second)
	if delivered != credits {
		t.Fatalf("delivered %d, want %d", delivered, credits)
	}
	b.Release()
	r.k.Run(r.k.Now() + time.Second)
	if !writable {
		t.Fatal("no writable notification after credit return")
	}
	if err := a.Send(msg(1, 1000, nil), false); err != nil {
		t.Fatalf("send after credit return: %v", err)
	}
}

func TestNullPointerNonRDMAErrorsSenderOnly(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var errA, errB error
	a.Handler.OnError = func(v *VI, err error) { errA = err }
	b.Handler.OnError = func(v *VI, err error) { errB = err }
	if err := a.Send(comm.SendParams{Msg: comm.Message{Kind: 1, Size: 100}, NullPtr: true}, false); err != nil {
		t.Fatalf("post must succeed; error is asynchronous: %v", err)
	}
	r.k.Run(r.k.Now() + time.Second)
	if !errors.Is(errA, comm.ErrDescriptorError) {
		t.Fatalf("sender error = %v, want descriptor error completion", errA)
	}
	if errB != nil {
		t.Fatalf("receiver error = %v, want none for non-RDMA", errB)
	}
}

func TestNullPointerRDMAErrorsBothEnds(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var errA, errB error
	a.Handler.OnError = func(v *VI, err error) { errA = err }
	b.Handler.OnError = func(v *VI, err error) { errB = err }
	if err := a.Send(comm.SendParams{Msg: comm.Message{Kind: 1, Size: 100}, NullPtr: true}, true); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + time.Second)
	if !errors.Is(errA, comm.ErrDescriptorError) || !errors.Is(errB, comm.ErrDescriptorError) {
		t.Fatalf("errors = %v / %v, want both ends (remote write diffuses faults)", errA, errB)
	}
}

func TestSizeMismatchConfinedToOneMessage(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var got []*Delivered
	var errB error
	b.Handler.OnMessage = func(v *VI, d *Delivered) { got = append(got, d); v.Release() }
	b.Handler.OnError = func(v *VI, err error) { errB = err }

	if err := a.Send(msg(1, 1000, "before"), false); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(comm.SendParams{Msg: comm.Message{Kind: 2, Size: 1000}, SizeOffset: 64}, false); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(msg(3, 1000, "after"), false); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + time.Second)
	if !errors.Is(errB, comm.ErrDescriptorError) {
		t.Fatalf("receiver error = %v, want descriptor error", errB)
	}
	// Message boundaries confine the fault: unlike TCP, the following
	// message arrives intact.
	if len(got) != 2 || got[0].Msg.Payload != "before" || got[1].Msg.Payload != "after" {
		t.Fatalf("delivered %+v; messages around the faulted one must survive", got)
	}
}

func TestSizeMismatchRDMAErrorsBothEnds(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var errA, errB error
	a.Handler.OnError = func(v *VI, err error) { errA = err }
	b.Handler.OnError = func(v *VI, err error) { errB = err }
	if err := a.Send(comm.SendParams{Msg: comm.Message{Kind: 1, Size: 100}, SizeOffset: 8}, true); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + time.Second)
	if errA == nil || errB == nil {
		t.Fatalf("errors = %v / %v, want both ends", errA, errB)
	}
}

func TestPtrOffsetDeliversCorruptPayload(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var got []*Delivered
	b.Handler.OnMessage = func(v *VI, d *Delivered) { got = append(got, d); v.Release() }
	var errA error
	a.Handler.OnError = func(v *VI, err error) { errA = err }
	if err := a.Send(comm.SendParams{Msg: comm.Message{Kind: 1, Size: 100}, PtrOffset: 12}, false); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + time.Second)
	if len(got) != 1 || !got[0].Corrupt {
		t.Fatalf("got = %+v, want one corrupt delivery", got)
	}
	if errA != nil {
		t.Fatalf("sender error for valid-but-wrong pointer = %v, want none (non-RDMA)", errA)
	}
}

func TestPtrOffsetRDMAAlsoErrorsSender(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var errA error
	a.Handler.OnError = func(v *VI, err error) { errA = err }
	got := 0
	b.Handler.OnMessage = func(v *VI, d *Delivered) {
		got++
		if !d.Corrupt {
			t.Error("remote-write corruption not flagged")
		}
	}
	if err := a.Send(comm.SendParams{Msg: comm.Message{Kind: 1, Size: 100}, PtrOffset: 12}, true); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + time.Second)
	if got != 1 || errA == nil {
		t.Fatalf("got=%d errA=%v, want corrupt delivery plus sender-side error", got, errA)
	}
}

func TestLinkFaultBreaksConnectionFast(t *testing.T) {
	r := newRig(t)
	a, _ := r.connect(t, 0, 1)
	var broke error
	var brokeAt sim.Time
	a.Handler.OnBreak = func(v *VI, err error) { broke, brokeAt = err, r.k.Now() }
	r.cl.Node(1).Link.Up = false
	start := r.k.Now()
	if err := a.Send(msg(1, 1000, nil), false); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + time.Minute)
	if !errors.Is(broke, ErrConnBroken) {
		t.Fatalf("break = %v, want ErrConnBroken", broke)
	}
	detect := brokeAt - start
	cfg := DefaultConfig()
	max := time.Duration(cfg.HWAckRetries+1) * cfg.HWAckTimeout
	if detect > max {
		t.Fatalf("fail-stop detection took %v, want under %v (contrast TCP's minutes)", detect, max)
	}
}

func TestSendToDeadProcessNACKBreaks(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var broke error
	a.Handler.OnBreak = func(v *VI, err error) { broke = err }
	// Peer process tears its VI down without the orderly Disconnect
	// reaching us (simulate by dropping the VI directly).
	b.n.dropVI(b)
	if err := a.Send(msg(1, 100, nil), false); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + time.Second)
	if !errors.Is(broke, ErrConnBroken) {
		t.Fatalf("break = %v, want fast NACK-triggered break", broke)
	}
}

func TestDisconnectNotifiesPeer(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var broke error
	b.Handler.OnBreak = func(v *VI, err error) { broke = err }
	a.Disconnect()
	r.k.Run(r.k.Now() + time.Second)
	if !errors.Is(broke, ErrConnBroken) {
		t.Fatalf("peer break = %v, want ErrConnBroken", broke)
	}
}

func TestDialDeadHostTimesOut(t *testing.T) {
	r := newRig(t)
	r.cl.Node(2).Crash()
	var got error
	r.nics[0].Dial(2, func(v *VI, err error) { got = err })
	r.k.Run(r.k.Now() + time.Minute)
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("dial = %v, want ErrTimeout", got)
	}
	if r.os[0].Pinned() != 0 {
		t.Fatalf("failed dial leaked %d pinned bytes", r.os[0].Pinned())
	}
}

func TestDialNoListenerRefused(t *testing.T) {
	r := newRig(t)
	var got error
	r.nics[0].Dial(3, func(v *VI, err error) { got = err })
	r.k.Run(r.k.Now() + time.Minute)
	if !errors.Is(got, ErrRefused) {
		t.Fatalf("dial = %v, want ErrRefused", got)
	}
}

func TestPinExhaustionFailsSetupNotEstablishedChannels(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	got := 0
	b.Handler.OnMessage = func(v *VI, d *Delivered) { got++; v.Release() }

	// Exhaust pinnable memory on node 0: new VIs cannot be created...
	r.os[0].SetPinThreshold(r.os[0].Pinned())
	var dialErr error
	r.nics[0].Dial(2, func(v *VI, err error) { dialErr = err })
	r.k.Run(r.k.Now() + time.Second)
	if !errors.Is(dialErr, comm.ErrNoResources) {
		t.Fatalf("dial during pin exhaustion = %v, want ErrNoResources", dialErr)
	}
	// ...but the established channel, having pre-allocated, is immune.
	if err := a.Send(msg(1, 8192, nil), false); err != nil {
		t.Fatalf("established VI affected by pin exhaustion: %v", err)
	}
	r.k.Run(r.k.Now() + time.Second)
	if got != 1 {
		t.Fatal("message lost during pin exhaustion on an established VI")
	}
}

// The property the paper calls out in §5.4: kernel memory exhaustion does
// not perturb VIA at all, because all channel resources were pre-allocated
// at setup.
func TestSKBufFaultDoesNotAffectVIA(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	got := 0
	b.Handler.OnMessage = func(v *VI, d *Delivered) { got++; v.Release() }
	r.os[0].SetSKBufFault(true)
	r.os[1].SetSKBufFault(true)
	for i := 0; i < 5; i++ {
		if err := a.Send(msg(1, 8192, nil), false); err != nil {
			t.Fatalf("send during kernel memory fault: %v", err)
		}
	}
	r.k.Run(r.k.Now() + time.Second)
	if got != 5 {
		t.Fatalf("delivered %d of 5 during kernel memory fault; VIA must be immune", got)
	}
}

func TestAcceptSidePinFailureRefuses(t *testing.T) {
	r := newRig(t)
	r.nics[1].Listen(func(v *VI) {})
	r.os[1].SetPinThreshold(0)
	var got error
	r.nics[0].Dial(1, func(v *VI, err error) { got = err })
	r.k.Run(r.k.Now() + time.Minute)
	if !errors.Is(got, ErrRefused) {
		t.Fatalf("dial = %v, want ErrRefused when acceptor cannot pin", got)
	}
}

// Property: any mix of regular and remote-write sends (within credit
// limits, with releases) arrives exactly once, in order.
func TestPropertyMessagesLosslessInOrder(t *testing.T) {
	f := func(plan []bool) bool {
		if len(plan) > 60 {
			plan = plan[:60]
		}
		k := sim.New(13)
		cl := cluster.New(k, cluster.DefaultConfig())
		var nics []*NIC
		for i := 0; i < 2; i++ {
			o := osmodel.New(k, cl.Node(i), 100<<20)
			nics = append(nics, NewNIC(k, cl, cl.Node(i), o, DefaultConfig()))
		}
		var src, dst *VI
		nics[1].Listen(func(v *VI) { dst = v })
		nics[0].Dial(1, func(v *VI, err error) { src = v })
		k.Run(k.Now() + time.Second)
		if src == nil || dst == nil {
			return false
		}
		var got []*Delivered
		dst.Handler.OnMessage = func(v *VI, d *Delivered) {
			got = append(got, d)
			v.Release()
		}
		i := 0
		var feed func()
		feed = func() {
			for i < len(plan) {
				err := src.Send(comm.SendParams{Msg: comm.Message{Kind: i, Size: 512, Payload: i}}, plan[i])
				if errors.Is(err, comm.ErrWouldBlock) {
					src.Handler.OnWritable = func(v *VI) { feed() }
					return
				}
				if err != nil {
					return
				}
				i++
			}
		}
		feed()
		k.Run(k.Now() + time.Minute)
		if len(got) != len(plan) {
			return false
		}
		for j, d := range got {
			if d.Msg.Payload != j || d.RemoteWrite != plan[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Regression: a transient loss burst (shorter than the fail-stop budget)
// must be fully absorbed — selective-repeat retransmission recovers every
// message, the cumulative credit protocol leaks nothing, and the channel
// returns to full-rate flow.
func TestTransientLossBurstFullyAbsorbed(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var got []int
	b.Handler.OnMessage = func(v *VI, d *Delivered) {
		got = append(got, d.Msg.Payload.(int))
		d.Release()
	}
	next := 0
	blocked := false
	a.Handler.OnWritable = func(v *VI) { blocked = false }
	feed := func() {
		if blocked {
			return
		}
		for {
			err := a.Send(msg(1, 1024, next), false)
			if errors.Is(err, comm.ErrWouldBlock) {
				blocked = true
				return
			}
			if err != nil {
				t.Fatalf("send: %v", err)
			}
			next++
			if next%7 == 0 { // keep a trickle, not an infinite loop
				return
			}
		}
	}
	// Feed continuously while a 200 ms glitch hits mid-stream.
	tick := sim.NewTicker(r.k, 5*time.Millisecond, feed)
	tick.Start()
	r.k.After(100*time.Millisecond, func() { r.cl.Node(1).Link.Up = false })
	r.k.After(300*time.Millisecond, func() { r.cl.Node(1).Link.Up = true })
	r.k.Run(5 * time.Second)
	tick.Stop()
	r.k.Run(10 * time.Second)

	if !a.Established() || !b.Established() {
		t.Fatal("transient glitch broke the channel (should be absorbed)")
	}
	if len(got) != next {
		t.Fatalf("delivered %d of %d sent", len(got), next)
	}
	for i, p := range got {
		if p != i {
			t.Fatalf("out of order at %d: %d", i, p)
		}
	}
	// Flow must have fully recovered: credits back to a healthy level.
	if a.Credits() <= 0 {
		t.Fatalf("credits still exhausted after recovery: %d", a.Credits())
	}
	// And sends must be fast again (no per-message 250 ms lock-step).
	start := len(got)
	for i := 0; i < 20; i++ {
		if err := a.Send(msg(1, 1024, next), false); err != nil {
			t.Fatalf("post-recovery send: %v", err)
		}
		next++
	}
	r.k.Run(r.k.Now() + 50*time.Millisecond)
	if len(got)-start != 20 {
		t.Fatalf("post-recovery burst delivered %d of 20 within 50ms", len(got)-start)
	}
}

// In steady state every acked message hands its pendingMsg record back to
// the VI, the next Send takes it again, and arming its HW-ack timeout
// allocates nothing: the callback was bound when the record was made.
func TestAckedMessagesRecyclePendingRecords(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	b.Handler.OnMessage = func(v *VI, d *Delivered) { d.Release() }
	send := func() {
		if err := a.Send(msg(1, 512, nil), false); err != nil {
			t.Fatal(err)
		}
		r.k.Run(r.k.Now() + time.Millisecond)
		if len(a.pending) != 0 {
			t.Fatalf("%d messages still await their HW ack", len(a.pending))
		}
	}
	send()
	if len(a.free) != 1 {
		t.Fatalf("free list holds %d records after one acked message, want 1", len(a.free))
	}
	rec := a.free[0]
	for i := 0; i < 20; i++ {
		send()
	}
	if len(a.free) != 1 || a.free[0] != rec {
		t.Fatal("steady-state messages did not reuse the same pendingMsg record")
	}
	if rec.f.payload != nil || rec.timer.Pending() {
		t.Fatal("a recycled record keeps its payload or a live timer")
	}
	cycle := func() {
		pm := a.newPending()
		pm.f.msgID = 1 << 40
		a.pending[pm.f.msgID] = pm
		a.armHWAck(pm)
		a.handleHWAck(pm.f.msgID)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a pendingMsg round trip allocates %.1f times", allocs)
	}
}

// Once warm, a message's whole trip allocates nothing: the data, HW-ack
// and credit frames, the pendingMsg and the delivery record (with its
// delivery event) all come from free lists.
func TestMessageRoundTripDoesNotAllocate(t *testing.T) {
	for _, rw := range []bool{false, true} {
		r := newRig(t)
		a, b := r.connect(t, 0, 1)
		got := 0
		b.Handler.OnMessage = func(v *VI, d *Delivered) {
			got++
			d.Release()
		}
		p := msg(1, 8192, &got)
		send := func() {
			if err := a.Send(p, rw); err != nil {
				t.Fatal(err)
			}
			r.k.Run(r.k.Now() + 10*time.Millisecond)
		}
		send() // warm the free lists and the kernel arena
		if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
			t.Fatalf("remote write %v: a message send -> deliver -> Release allocates %.1f times", rw, allocs)
		}
		if got != 102 {
			t.Fatalf("delivered %d messages, want 102", got)
		}
	}
}

// A released delivery record goes back on its NIC's free list: it no
// longer shows the released message, a second Release returns no second
// credit, and the next delivery reuses it for its own message only.
func TestReleasedDeliveryIsNotObservedAgain(t *testing.T) {
	r := newRig(t)
	a, b := r.connect(t, 0, 1)
	var held *Delivered
	var got []any
	b.Handler.OnMessage = func(v *VI, d *Delivered) {
		got = append(got, d.Msg.Payload)
		held = d
	}
	if err := a.Send(msg(1, 512, "first"), false); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + time.Millisecond)
	if held == nil {
		t.Fatal("nothing delivered")
	}
	first := held
	first.Release()
	if first.Msg.Payload != nil || first.vi != nil {
		t.Fatalf("a released record still shows its message: %+v", first.Msg)
	}
	first.Release() // ignored: the credit was already returned
	if b.totalReleased != 1 {
		t.Fatalf("released %d credits for one message", b.totalReleased)
	}
	r.k.Run(r.k.Now() + time.Millisecond)
	if err := a.Send(msg(2, 512, "second"), false); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + time.Millisecond)
	if held != first || held.Msg.Payload != "second" {
		t.Fatalf("the next delivery did not reuse the released record for its own message")
	}
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("deliveries = %v, want [first second]", got)
	}
	held.Release()
	r.k.Run(r.k.Now() + time.Millisecond)
	if a.Credits() != a.n.cfg.Credits {
		t.Fatalf("sender holds %d credits after both releases, want %d", a.Credits(), a.n.cfg.Credits)
	}
}
