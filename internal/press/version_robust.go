package press

import (
	"vivo/internal/substrate"
	subvia "vivo/internal/substrate/via"
)

// RobustPress is this repository's implementation of the communication
// layer the paper's §7 *proposes* but does not build: message-based,
// single-copy (bounce buffers pre-allocated and pinned at setup, so the
// file cache needs no pinning), fail-stop fault reporting matched to the
// SAN fabric, synchronous descriptor validation (bad parameters are
// rejected without hurting the channel), and a rigorous membership
// protocol that re-merges splintered clusters (§6.2's suggested fix).
//
// The registration below is the version's entire integration: a substrate
// spec (the VIA layer with synchronous descriptor checks switched on) and
// a VersionSpec naming the policies the server should compose. No server
// code knows ROBUST-PRESS exists.
//
// This file must sort after version.go: experiment seeds derive from the
// registration ordinal, so the paper's five keep 0-4 and ROBUST-PRESS
// takes 5 (TestRegistryOrdinals pins this).
var RobustPress = Register(VersionSpec{
	Name:        "ROBUST-PRESS",
	Substrate:   robustSubstrate(),
	FlowControl: UserLevelCredits,
	Join:        ImplicitRejoin,
	UserLevel:   true,
	Robust:      true,
	Remerge:     true,
	// Not in the paper: the analytic capacity of the §7 design with the
	// calibrated cost model (between VIA-3 and VIA-5).
	PaperThroughput: 6670,
	Costs:           robustCosts(),
})

// robustSubstrate is the §7 layer: the SAN fabric with descriptor
// validation done synchronously at the API boundary, so corrupted send
// parameters come back as comm.ErrBadDescriptor instead of poisoning the
// channel.
func robustSubstrate() substrate.Spec {
	o := subvia.DefaultOptions()
	o.Config.SyncDescriptorChecks = true
	return o
}
