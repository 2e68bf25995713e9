// Package press implements the PRESS cluster-based locality-conscious web
// server of Carrera & Bianchini in the five versions the paper studies
// (Table 1) plus this repository's §7 extension, together with the
// restart daemon and the deployment wiring that connects servers,
// communication substrates, OS models and client workload.
//
// # The server
//
// Any node can receive a client request (round-robin DNS); the initial
// node parses it and either serves it from its own cache/disk or forwards
// it to the service node that caches the file, which returns the content.
// Nodes broadcast cache insertions/evictions so everyone shares a view of
// who caches what, and piggyback load on every intra-cluster message.
// Failure detection is by broken connections (all versions) plus a
// directed-ring heartbeat protocol (TCP-PRESS-HB only); recovery excludes
// the failed node, and a rejoining node is re-integrated per the paper's
// TCP or VIA join protocol. The server is fail-fast: unexpected
// communication errors terminate the process, which the per-node daemon
// then restarts.
//
// # Layers
//
// The server core (server.go) is communication-agnostic: it talks to the
// network only through the [vivo/internal/substrate] SPI. All
// version-dependent behaviour is composed at construction time from the
// policy fields of the version's [VersionSpec] — there are no per-version
// server subclasses or version checks in the core, only three pluggable
// policy layers plus a shared request path:
//
//   - sendpath.go — the send engine (VersionSpec.FlowControl):
//     kernel-buffered blocking sends with a writability-driven drain
//     queue (TCP), or user-level credit-gated sends with per-peer
//     overflow queues (VIA).
//   - detect.go — the failure-detection policy (VersionSpec.Heartbeats):
//     connection breaks only, or breaks plus the directed-ring heartbeat
//     protocol.
//   - membership.go — reconfiguration plus the join policy
//     (VersionSpec.Join): the explicit join-request handshake (TCP) or
//     implicit rejoin on connect (VIA).
//   - router.go — the request path (routing, forwarding, cache, disk),
//     identical across versions up to the cost model.
//
// Each layer emits [vivo/internal/trace] events at its decision points
// (loop blocks, credit deferrals, heartbeat misses, membership changes,
// the request lifecycle), so a traced run shows exactly which policy did
// what and when.
//
// # Versions
//
// A [Version] is an index into a registry of [VersionSpec] values — pure
// data: the substrate (a [substrate.Spec] value that builds each node's
// transport), flow-control and join policies, detection and zero-copy
// flags, the cost model and the Table-1 calibration target. [Register] adds a new version; no server code needs
// to change (version_robust.go registers ROBUST-PRESS this way).
//
// The built-ins: [TCPPress] (kernel TCP), [TCPPressHB] (adds heartbeats),
// [VIAPress0] (VIA messages), [VIAPress3] (remote writes and polling),
// [VIAPress5] (adds zero-copy, which pins the file cache), and
// [RobustPress] — the communication layer §7 of the paper proposes but
// never builds. [Versions] lists the paper's five in Table-1 order;
// [AllVersions] appends every registered extension.
//
// # Worked example
//
// A deployment is a [sim.Kernel], a [Config] for the chosen version, and
// the wiring [NewDeployment] does; everything after that is virtual time:
//
//	k := sim.New(42)
//	cfg := press.DefaultConfig(press.VIAPress5)
//	d := press.NewDeployment(k, cfg)
//	d.Start()
//	d.WarmStart()                      // prepopulate caches
//	k.Run(60 * time.Second)            // one simulated minute
//
// Drive it with the workload package, run the whole sequence as one
// internal/obs Harness value (see examples/quickstart), or measure its
// saturation throughput directly with [MeasureThroughput]. The fault
// experiments of internal/experiments inject faults into a live
// deployment via internal/faults and read reactions off the metrics
// recorder.
package press
