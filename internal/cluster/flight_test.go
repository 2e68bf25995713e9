package cluster

import (
	"slices"
	"testing"
	"time"
)

// A handler that transmits from inside its own delivery may get the very
// record its packet just left; every packet must still arrive intact.
func TestTransmitFromHandlerDeliversExactlyWhatWasSent(t *testing.T) {
	k, c := testCluster(t)
	const rounds = 50
	var sent, got [4][]int
	inFlight, peak := 0, 0
	send := func(src, dst, v int) {
		sent[dst] = append(sent[dst], v)
		inFlight++
		peak = max(peak, inFlight)
		c.Transmit(Packet{Src: src, Dst: dst, Size: 100 + v, Proto: "t", Payload: v})
	}
	for _, n := range c.Nodes {
		id := n.ID
		n.RegisterProto("t", func(p Packet) {
			v := p.Payload.(int)
			got[id] = append(got[id], v)
			inFlight--
			if v < rounds {
				// Forward to the next node, and echo to the sender.
				send(id, (id+1)%4, v+1)
				send(id, p.Src, 1000+v)
			}
		})
	}
	send(0, 1, 0)
	k.RunAll()
	for id := range got {
		a, b := slices.Clone(sent[id]), slices.Clone(got[id])
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("node %d received %v, want %v", id, got[id], sent[id])
		}
	}
	if len(c.flights) > peak {
		t.Fatalf("free list holds %d records, more than the %d packets ever in flight at once", len(c.flights), peak)
	}
}

// Every way a packet can be lost returns its record: a down switch, a
// down link at either end, and a destination that reboots while the
// packets are past the switch (the incarnation check). The free list
// never outgrows the peak number of packets in flight.
func TestDroppedFlightsReturnTheirRecords(t *testing.T) {
	// Five 100-byte packets have all left the switch by 10us, and none
	// has arrived.
	const burst = 5
	const pastSwitch = 10 * time.Microsecond
	for _, tc := range []struct {
		name        string
		at          time.Duration // when the path breaks, after the burst is sent
		break_, fix func(c *Cluster, h func(Packet))
	}{
		{"switch-down", 0,
			func(c *Cluster, _ func(Packet)) { c.Sw.Up = false },
			func(c *Cluster, _ func(Packet)) { c.Sw.Up = true }},
		{"src-link-down", 0,
			func(c *Cluster, _ func(Packet)) { c.Node(0).Link.Up = false },
			func(c *Cluster, _ func(Packet)) { c.Node(0).Link.Up = true }},
		{"dst-link-down", pastSwitch,
			func(c *Cluster, _ func(Packet)) { c.Node(1).Link.Up = false },
			func(c *Cluster, _ func(Packet)) { c.Node(1).Link.Up = true }},
		{"reboot", pastSwitch,
			func(c *Cluster, h func(Packet)) {
				n := c.Node(1)
				n.Crash()
				n.Boot()
				n.RegisterProto("t", h) // the rebooted node listens, so only the incarnation check drops
			},
			func(*Cluster, func(Packet)) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, c := testCluster(t)
			delivered := 0
			handler := func(Packet) { delivered++ }
			c.Node(1).RegisterProto("t", handler)
			sendBurst := func() {
				for i := 0; i < burst; i++ {
					c.Transmit(Packet{Src: 0, Dst: 1, Size: 100, Proto: "t"})
				}
			}
			for round := 0; round < 3; round++ {
				sendBurst()
				k.Run(k.Now() + tc.at)
				tc.break_(c, handler)
				k.RunAll()
				tc.fix(c, handler)
				if len(c.flights) != burst {
					t.Fatalf("round %d: free list holds %d records, want %d", round, len(c.flights), burst)
				}
			}
			if delivered != 0 {
				t.Fatalf("%d packets delivered across a broken path", delivered)
			}
			// A healthy path reuses the same records.
			sendBurst()
			k.RunAll()
			if delivered != burst || len(c.flights) != burst {
				t.Fatalf("delivered %d with %d free records, want %d and %d", delivered, len(c.flights), burst, burst)
			}
		})
	}
}

func TestTransmitDoesNotAllocate(t *testing.T) {
	k, c := testCluster(t)
	type frame struct{ seq int }
	f := &frame{}
	got := 0
	c.Node(1).RegisterProto("t", func(p Packet) {
		if p.Payload.(*frame) == f {
			got++
		}
	})
	send := func() {
		c.Transmit(Packet{Src: 0, Dst: 1, Size: 1500, Proto: "t", Payload: f})
		k.RunAll()
	}
	send() // warm the free list and the kernel arena
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("one packet across the fabric allocates %.1f times", allocs)
	}
	if got < 101 {
		t.Fatalf("delivered %d packets, want at least 101", got)
	}
}
