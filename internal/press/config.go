package press

import (
	"time"

	"vivo/internal/cluster"
	"vivo/internal/substrate"
)

// Config describes one PRESS deployment: the version under study plus the
// hardware, substrate and server parameters. DefaultConfig reproduces the
// paper's testbed.
type Config struct {
	Version Version

	// Nodes is the cluster size (max 8; the directory uses a bitmask).
	Nodes int

	// CacheBytes is the per-node file-cache budget (128 MiB in the
	// paper) and FileSize the uniform document size.
	CacheBytes int64
	FileSize   int64

	// WorkingSetFiles is the number of distinct documents; used by
	// WarmStart to prepopulate caches and directories.
	WorkingSetFiles int

	// PinLimit is the per-node pinnable-memory budget handed to the OS
	// model. It must fit the file cache (for VIA-PRESS-5) plus VI
	// buffers.
	PinLimit int64

	// Costs is the CPU cost model; zero value means Costs(Version).
	Costs CostModel

	// Heartbeat protocol (TCP-PRESS-HB): period between heartbeats and
	// the silence threshold that declares the predecessor dead (the
	// paper uses 3 missed heartbeats at 5 s = 15 s).
	HBPeriod  time.Duration
	HBTimeout time.Duration

	// JoinTimeout bounds the (one-shot) rejoin protocol: a restarted
	// node that gets no acceptance gives up and runs standalone.
	JoinTimeout time.Duration

	// RestartDelay is how long the per-node daemon waits before
	// restarting a dead PRESS process.
	RestartDelay time.Duration

	// Disk subsystem: spindles per node and per-read service time.
	DiskSpindles int
	DiskService  time.Duration

	// AcceptBacklog bounds the per-node queue of accepted-but-unparsed
	// client requests; beyond it SYNs go unanswered.
	AcceptBacklog int

	// Remerge enables the rigorous-membership ablation (§6.2): nodes
	// periodically try to reunify a splintered cluster instead of
	// waiting for an operator.
	Remerge         bool
	RemergeInterval time.Duration

	// Hardware configures the simulated cluster fabric.
	Hardware cluster.Config

	// Substrate is the communication layer carrying intra-cluster
	// traffic; nil means the version's default (Version.Spec().Substrate).
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
		PinLimit:        160 << 20,
		Costs:           spec.Costs,
		HBPeriod:        5 * time.Second,
		HBTimeout:       15 * time.Second,
		JoinTimeout:     10 * time.Second,
		RestartDelay:    3 * time.Second,
		DiskSpindles:    2,
		DiskService:     6 * time.Millisecond,
		AcceptBacklog:   512,
		RemergeInterval: 10 * time.Second,
		Remerge:         spec.Remerge,
		Hardware:        cluster.DefaultConfig(),
		Substrate:       spec.Substrate,
	}
}

// Table1Throughput returns the paper's measured near-peak throughput for
// the version (requests/second on four nodes), the calibration target for
// the cost model.
func Table1Throughput(v Version) float64 { return v.Spec().PaperThroughput }
