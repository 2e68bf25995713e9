package press

import (
	"time"

	"vivo/internal/substrate"
)

// Config describes one PRESS deployment: the version under study and the
// few values a study changes. Everything else about the paper's testbed
// (the fabric, disks, pinning limit, heartbeat period, restart and join
// timers) is a constant next to the code that reads it, and the cost
// model comes from the version's spec. DefaultConfig reproduces the
// paper's setup.
type Config struct {
	Version Version

	// Nodes is the cluster size (max 8; the directory uses a bitmask).
	// The simulated fabric has exactly this many nodes.
	Nodes int

	// CacheBytes is the per-node file-cache budget (128 MiB in the
	// paper) and FileSize the uniform document size.
	CacheBytes int64
	FileSize   int64

	// WorkingSetFiles is the number of distinct documents; used by
	// WarmStart to prepopulate caches and directories.
	WorkingSetFiles int

	// HBTimeout is the silence threshold after which the heartbeat
	// protocol (TCP-PRESS-HB) declares the predecessor dead: the paper
	// uses 3 missed heartbeats at 5 s = 15 s.
	HBTimeout time.Duration

	// Remerge enables the rigorous-membership ablation (§6.2): nodes
	// periodically try to reunify a splintered cluster instead of
	// waiting for an operator.
	Remerge bool

	// Substrate is the communication layer carrying intra-cluster
	// traffic (DefaultConfig: Version.Spec().Substrate).
	Substrate substrate.Spec
}

// DefaultConfig mirrors the paper's setup for the given version.
func DefaultConfig(v Version) Config {
	spec := v.Spec()
	return Config{
		Version:         v,
		Nodes:           4,
		CacheBytes:      128 << 20,
		FileSize:        8 << 10,
		WorkingSetFiles: 72 * 1024,
		HBTimeout:       15 * time.Second,
		Remerge:         spec.Remerge,
		Substrate:       spec.Substrate,
	}
}

// Table1Throughput returns the paper's measured near-peak throughput for
// the version (requests/second on four nodes), the calibration target for
// the cost model.
func Table1Throughput(v Version) float64 { return v.Spec().PaperThroughput }
