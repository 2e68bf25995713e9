package press

import (
	"fmt"
	"time"

	"vivo/internal/substrate"
	subtcp "vivo/internal/substrate/tcp"
	subvia "vivo/internal/substrate/via"
)

// Version indexes the registry of PRESS builds. The paper's five versions
// (Table 1) are registered below in Table-1 order; extensions register
// after them (see version_robust.go). A Version is just an ordinal into
// the spec table — all behaviour differences between builds live in the
// [VersionSpec], not in code that switches on the ordinal.
type Version int

// FlowControl selects the send-path engine: how the server reacts when an
// intra-cluster channel pushes back.
type FlowControl int

const (
	// KernelBuffered models opaque kernel socket buffers: there is one
	// send path, and when any peer's buffer fills it stalls head-of-line
	// and blocks the main loop — the §5 stall-cascade behaviour of TCP.
	KernelBuffered FlowControl = iota
	// UserLevelCredits models library-visible credit flow control: a
	// stalled peer only backs up its own bounded queue while the main
	// loop keeps serving everyone else.
	UserLevelCredits
)

// JoinProtocol selects how a restarted node re-enters the cluster.
type JoinProtocol int

const (
	// ExplicitJoin broadcasts a join request that only the lowest-id
	// active member may answer (the TCP versions; exhibits the paper's
	// §5.3 node-crash rejoin quirk).
	ExplicitJoin JoinProtocol = iota
	// ImplicitRejoin treats a re-established channel as re-admission and
	// exchanges cache summaries on the spot (the VIA versions, §3).
	ImplicitRejoin
)

// VersionSpec is the complete, declarative description of one PRESS
// build: which substrate carries intra-cluster traffic, which send-path,
// failure-detection and join policies the server composes, and the
// calibrated cost model. Registering a spec is all it takes to add a
// version — the server core never switches on version identity.
type VersionSpec struct {
	// Name is the version's display name (e.g. "VIA-PRESS-5"); CLIs
	// resolve -version flags against it via VersionByName.
	Name string

	// Substrate is the communication layer and its options (see
	// internal/substrate); it builds each node's transport.
	Substrate substrate.Spec

	// FlowControl and Join select the server's send-path engine and
	// rejoin protocol.
	FlowControl FlowControl
	Join        JoinProtocol

	// Heartbeats arms the directed-ring heartbeat detector on top of the
	// universal broken-connection detection.
	Heartbeats bool

	// ZeroCopy sends file data straight out of the (pinned) file cache.
	ZeroCopy bool

	// UserLevel marks substrates that bypass the kernel (the pessimistic
	// fault scenarios of Figures 7-10 apply to these).
	UserLevel bool

	// Robust marks the §7 robust-layer extension: synchronous descriptor
	// validation and graceful bad-parameter handling.
	Robust bool

	// Remerge defaults the §6.2 rigorous-membership ablation on.
	Remerge bool

	// EvictFarewell is a fault-injection fixture, not a real build knob:
	// the server sends one parting message to a peer *after* removing it
	// from the membership view, deliberately violating the chaos
	// "no send after eviction" ordering invariant. The chaos oracle tests
	// register a TCP-PRESS-HB clone with this bit set to prove the
	// detect → shrink → replay pipeline end to end (the ordering analogue
	// of the ForbidFault oracle fixture).
	EvictFarewell bool

	// PaperThroughput is the version's Table-1 near-peak throughput
	// (requests/second on four nodes), the cost-model calibration target.
	PaperThroughput float64

	// Costs is the calibrated CPU cost model.
	Costs CostModel
}

// specs is the version registry. Ordinals are load-bearing: experiment
// seeds derive from int(v), so registration order must never change for
// existing versions (see TestRegistryOrdinals).
var specs []VersionSpec

// Register adds a PRESS build to the version registry and returns its
// ordinal. Built-ins register from package variable initializers; the
// file names (version.go, version_robust.go) sort so that the paper's
// five always take ordinals 0-4 and ROBUST-PRESS 5.
func Register(spec VersionSpec) Version {
	if spec.Name == "" || spec.Substrate == nil {
		panic("press: VersionSpec needs a Name and a Substrate")
	}
	for _, s := range specs {
		if s.Name == spec.Name {
			panic(fmt.Sprintf("press: duplicate version %q", spec.Name))
		}
	}
	specs = append(specs, spec)
	return Version(len(specs) - 1)
}

// Spec returns the version's registered spec (the zero VersionSpec for an
// unregistered ordinal).
func (v Version) Spec() VersionSpec {
	if int(v) < 0 || int(v) >= len(specs) {
		return VersionSpec{}
	}
	return specs[v]
}

// VersionByName resolves a display name (as printed by String) to its
// Version.
func VersionByName(name string) (Version, bool) {
	for i, s := range specs {
		if s.Name == name {
			return Version(i), true
		}
	}
	return 0, false
}

// VersionNames lists every registered version name in registry order.
func VersionNames() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// The paper's five versions, in Table 1 order.
var (
	// TCPPress uses kernel TCP; connection breaks trigger
	// reconfiguration (and TCP takes minutes to break them).
	TCPPress = Register(VersionSpec{
		Name:            "TCP-PRESS",
		Substrate:       tcpSubstrate(),
		FlowControl:     KernelBuffered,
		Join:            ExplicitJoin,
		PaperThroughput: 4965,
		Costs:           tcpCosts(),
	})
	// TCPPressHB adds directed-ring heartbeats for fast detection.
	TCPPressHB = Register(VersionSpec{
		Name:            "TCP-PRESS-HB",
		Substrate:       tcpSubstrate(),
		FlowControl:     KernelBuffered,
		Join:            ExplicitJoin,
		Heartbeats:      true,
		PaperThroughput: 4965,
		Costs:           tcpCosts(),
	})
	// VIAPress0 uses VIA with regular (interrupt-driven) messages.
	VIAPress0 = Register(VersionSpec{
		Name:            "VIA-PRESS-0",
		Substrate:       subvia.DefaultOptions(),
		FlowControl:     UserLevelCredits,
		Join:            ImplicitRejoin,
		UserLevel:       true,
		PaperThroughput: 6031,
		Costs:           via0Costs(),
	})
	// VIAPress3 uses VIA remote memory writes and polling everywhere.
	VIAPress3 = Register(VersionSpec{
		Name:            "VIA-PRESS-3",
		Substrate:       viaSubstrate(true),
		FlowControl:     UserLevelCredits,
		Join:            ImplicitRejoin,
		UserLevel:       true,
		PaperThroughput: 6221,
		Costs:           via3Costs(),
	})
	// VIAPress5 adds zero-copy data transfers, which requires pinning
	// the file cache in physical memory.
	VIAPress5 = Register(VersionSpec{
		Name:            "VIA-PRESS-5",
		Substrate:       viaSubstrate(true),
		FlowControl:     UserLevelCredits,
		Join:            ImplicitRejoin,
		ZeroCopy:        true,
		UserLevel:       true,
		PaperThroughput: 7058,
		Costs:           via5Costs(),
	})
)

// tcpSubstrate is the kernel-TCP layer as the paper's testbed ran it.
func tcpSubstrate() substrate.Spec {
	o := subtcp.DefaultOptions()
	// Linux-2.2-era retransmission backoff reached minute-scale
	// intervals; 30 s keeps "recovers slightly after repair" while
	// preserving the rejoin race the paper observed after node crashes.
	o.Config.MaxRTO = 30 * time.Second
	return o
}

// viaSubstrate is the stock VIA layer, with or without the RDMA-write
// data path.
func viaSubstrate(remoteWrites bool) substrate.Spec {
	o := subvia.DefaultOptions()
	o.RemoteWrites = remoteWrites
	return o
}

// Versions lists the paper's five versions in Table 1 order.
var Versions = []Version{TCPPress, TCPPressHB, VIAPress0, VIAPress3, VIAPress5}

// AllVersions lists every registered version — the paper's five plus
// extensions — in registry order. It is assembled in an init function so
// that versions registered from other files' variable initializers (which
// all run before init) are included.
var AllVersions []Version

func init() {
	AllVersions = make([]Version, len(specs))
	for i := range specs {
		AllVersions[i] = Version(i)
	}
}

// String returns the paper's name for the version.
func (v Version) String() string {
	if s := v.Spec().Name; s != "" {
		return s
	}
	return fmt.Sprintf("Version(%d)", int(v))
}

// UsesVIA reports whether intra-cluster communication runs on the
// user-level SAN substrate (ROBUST-PRESS is a library layer over the same
// hardware).
func (v Version) UsesVIA() bool { return v.Spec().UserLevel }

// ZeroCopy reports whether file transfers avoid sender/receiver copies,
// requiring the file cache to be pinned.
func (v Version) ZeroCopy() bool { return v.Spec().ZeroCopy }

// Heartbeats reports whether the ring heartbeat protocol detects failures.
func (v Version) Heartbeats() bool { return v.Spec().Heartbeats }

// Robust reports whether this is the §7 robust-layer extension: sync
// descriptor validation, graceful bad-parameter handling and re-merging
// membership.
func (v Version) Robust() bool { return v.Spec().Robust }
