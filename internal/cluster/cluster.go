// Package cluster models the hardware of a small server cluster: nodes with
// a single CPU each, one network interface per node, point-to-point links to
// a single switch, and fail-stop faults in any of those components.
//
// It substitutes for the paper's physical testbed (four PIII-800 PCs on a
// 1 Gb/s Giganet cLAN). The model reproduces the properties the study
// depends on — per-link serialization delay, store-and-forward latency,
// silent packet loss when a link, switch or node is down, node hard reboots
// and node freezes — while remaining deterministic and fast.
package cluster

import (
	"fmt"
	"time"

	"vivo/internal/sim"
)

// Config fixes the hardware parameters of a simulated cluster.
type Config struct {
	// Nodes is the number of server nodes (the paper uses 4).
	Nodes int
	// LinkLatency is the propagation delay of one link hop.
	LinkLatency time.Duration
	// LinkBandwidth is the link data rate in bytes per second.
	LinkBandwidth float64
	// SwitchLatency is the forwarding latency of the switch.
	SwitchLatency time.Duration
	// RebootTime is how long a hard reboot keeps a node down.
	RebootTime time.Duration
}

// DefaultConfig mirrors the paper's testbed: 4 nodes, 1 Gb/s SAN with
// microsecond-scale latencies, and a one-minute hard reboot.
func DefaultConfig() Config {
	return Config{
		Nodes:         4,
		LinkLatency:   5 * time.Microsecond,
		LinkBandwidth: 125e6, // 1 Gb/s
		SwitchLatency: 1 * time.Microsecond,
		RebootTime:    60 * time.Second,
	}
}

// Packet is one unit of network transmission. Protocol simulators attach
// their own frame as Payload; Size is the wire size in bytes and drives
// serialization delay.
type Packet struct {
	Src, Dst int
	Size     int
	Proto    string
	Payload  any
}

// Cluster is the root hardware object.
type Cluster struct {
	K     *sim.Kernel
	Cfg   Config
	Nodes []*Node
	Sw    *Switch
}

// New builds a cluster per cfg on kernel k. All components start healthy.
func New(k *sim.Kernel, cfg Config) *Cluster {
	if cfg.Nodes < 1 {
		panic("cluster: need at least one node")
	}
	if cfg.LinkBandwidth <= 0 {
		panic("cluster: bandwidth must be positive")
	}
	c := &Cluster{K: k, Cfg: cfg, Sw: &Switch{Up: true}}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			ID:     i,
			cl:     c,
			Up:     true,
			Link:   &Link{Up: true},
			protos: make(map[string]func(Packet)),
		}
		n.CPU = newCPU(k)
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// Node returns the node with the given id, panicking on a bad id so model
// bugs surface immediately.
func (c *Cluster) Node(id int) *Node {
	if id < 0 || id >= len(c.Nodes) {
		panic(fmt.Sprintf("cluster: no node %d", id))
	}
	return c.Nodes[id]
}

// Transmit sends p through the fabric: source link, switch, destination
// link. The packet is silently dropped — exactly the fail-stop behaviour of
// a SAN — if any component on the path is down or frozen when the packet
// would traverse it. Delivery invokes the destination's protocol handler.
func (c *Cluster) Transmit(p Packet) {
	src, dst := c.Node(p.Src), c.Node(p.Dst)
	if !src.Up || src.Frozen || !src.Link.Up {
		return // NIC can't put the packet on the wire
	}
	txTime := time.Duration(float64(p.Size)/c.Cfg.LinkBandwidth*float64(time.Second)) + 1
	// Serialize on the source link (direction: node -> switch).
	start := c.K.Now()
	if src.Link.busyOut > start {
		start = src.Link.busyOut
	}
	endSrc := start + txTime
	src.Link.busyOut = endSrc
	atSwitch := endSrc + c.Cfg.LinkLatency
	c.K.At(atSwitch, func() {
		if !c.Sw.Up || !src.Link.Up {
			return // lost in the fabric
		}
		// Serialize on the destination link (direction: switch -> node).
		s := c.K.Now() + c.Cfg.SwitchLatency
		if dst.Link.busyIn > s {
			s = dst.Link.busyIn
		}
		endDst := s + txTime
		dst.Link.busyIn = endDst
		arrive := endDst + c.Cfg.LinkLatency
		inc := dst.incarnation
		c.K.At(arrive, func() {
			if !dst.Link.Up || !dst.Up || dst.Frozen {
				return
			}
			if dst.incarnation != inc {
				// The destination rebooted while the packet was in
				// flight; the frame is meaningless to the new
				// incarnation's hardware state and is dropped.
				return
			}
			if h, ok := dst.protos[p.Proto]; ok {
				h(p)
			}
		})
	})
}

// Switch models the single cluster switch. Taking it down drops every
// packet crossing the fabric.
type Switch struct {
	Up bool
}

// Link models one node-to-switch cable with independent fail-stop state and
// per-direction serialization.
type Link struct {
	Up      bool
	busyOut sim.Time // node -> switch
	busyIn  sim.Time // switch -> node
}

// Node is one server machine.
type Node struct {
	ID   int
	cl   *Cluster
	Up   bool
	CPU  *CPU
	Link *Link

	// Frozen models a node hang: the OS and NIC stop responding but no
	// state is lost; Unfreeze resumes exactly where the node stopped.
	Frozen bool

	// incarnation distinguishes boot sessions so in-flight packets and
	// stale timers addressed to a previous boot are discarded.
	incarnation int

	protos  map[string]func(Packet)
	onCrash []func()
	onBoot  []func()
}

// RegisterProto installs the receive handler for a protocol name,
// replacing any previous handler. Protocol simulators call this once per
// boot session.
func (n *Node) RegisterProto(name string, h func(Packet)) {
	n.protos[name] = h
}

// OnCrash registers a callback invoked when the node crashes (power loss /
// hard reboot start). Used by the OS model to discard kernel state and by
// protocol stacks to break connections.
func (n *Node) OnCrash(fn func()) { n.onCrash = append(n.onCrash, fn) }

// OnBoot registers a callback invoked when the node finishes booting.
// Used by the restart daemon to bring the application back up.
func (n *Node) OnBoot(fn func()) { n.onBoot = append(n.onBoot, fn) }

// Incarnation returns the current boot-session number.
func (n *Node) Incarnation() int { return n.incarnation }

// Crash takes the node down immediately: the CPU queue is discarded, all
// protocol handlers are dropped and crash callbacks run. The node stays
// down until Boot (or Reboot, which schedules one).
func (n *Node) Crash() {
	if !n.Up {
		return
	}
	n.Up = false
	n.Frozen = false
	n.incarnation++
	n.CPU.reset()
	n.protos = make(map[string]func(Packet))
	for _, fn := range n.onCrash {
		fn()
	}
}

// Boot brings a crashed node back up and runs boot callbacks.
func (n *Node) Boot() {
	if n.Up {
		return
	}
	n.Up = true
	for _, fn := range n.onBoot {
		fn()
	}
}

// Reboot crashes the node now and schedules Boot after the configured
// reboot time, modelling the paper's "hard reboot" node-crash fault.
func (n *Node) Reboot() {
	n.Crash()
	n.cl.K.After(n.cl.Cfg.RebootTime, n.Boot)
}

// Freeze halts the node without losing state (the "node hang" fault): the
// CPU stops dequeuing work and the NIC stops accepting packets.
func (n *Node) Freeze() {
	if !n.Up || n.Frozen {
		return
	}
	n.Frozen = true
	n.CPU.freeze()
}

// Unfreeze resumes a frozen node.
func (n *Node) Unfreeze() {
	if !n.Frozen {
		return
	}
	n.Frozen = false
	n.CPU.unfreeze()
}
