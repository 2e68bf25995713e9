package press

import "time"

// CostModel fixes the CPU time each server operation consumes on the
// simulated node. The per-version constants are calibrated so that the
// no-fault cluster throughputs land near Table 1 of the paper
// (TCP 4965, TCP-HB 4965, VIA-0 6031, VIA-3 6221, VIA-5 7058 req/s on four
// nodes); see EXPERIMENTS.md for the calibration record. Absolute values
// are effective costs on an 800 MHz PIII, not microbenchmarks — what the
// study needs is the ordering and the ratios.
type CostModel struct {
	// ClientHandle covers accepting, parsing and responding to one
	// client request over kernel TCP (identical for all versions: the
	// client side always speaks TCP).
	ClientHandle time.Duration

	// CacheRead is the cost of serving a cache hit buffer (the copy out
	// of the file cache). Zero-copy versions replace it with
	// CacheReadZeroCopy.
	CacheRead         time.Duration
	CacheReadZeroCopy time.Duration

	// SendSmall/RecvSmall are the per-side costs of an intra-cluster
	// control message (request forward, cache broadcast, heartbeat).
	SendSmall time.Duration
	RecvSmall time.Duration

	// SendData/RecvData are the per-side costs of a file-content
	// message, including any copies the version performs.
	SendData time.Duration
	RecvData time.Duration

	// CacheInsert covers inserting a fetched file into the cache
	// (bookkeeping; VIA-5 additionally pays pinning inside the cache).
	CacheInsert time.Duration
}

// baseCosts holds the version-independent operations.
func baseCosts() CostModel {
	return CostModel{
		ClientHandle:      539 * time.Microsecond,
		CacheRead:         20 * time.Microsecond,
		CacheReadZeroCopy: 5 * time.Microsecond,
		CacheInsert:       10 * time.Microsecond,
	}
}

// tcpCosts: kernel crossings, data copies on both sides and
// interrupt-driven reception on every message.
func tcpCosts() CostModel {
	c := baseCosts()
	c.SendSmall = 30 * time.Microsecond
	c.RecvSmall = 35 * time.Microsecond
	c.SendData = 130 * time.Microsecond
	c.RecvData = 133 * time.Microsecond
	return c
}

// via0Costs: user-level sends, but still copies on both sides and
// receiver interrupts.
func via0Costs() CostModel {
	c := baseCosts()
	c.SendSmall = 8 * time.Microsecond
	c.RecvSmall = 15 * time.Microsecond
	c.SendData = 48 * time.Microsecond
	c.RecvData = 68 * time.Microsecond
	return c
}

// via3Costs: remote memory writes and polling, no receiver interrupts.
func via3Costs() CostModel {
	c := baseCosts()
	c.SendSmall = 5 * time.Microsecond
	c.RecvSmall = 4 * time.Microsecond
	c.SendData = 45 * time.Microsecond
	c.RecvData = 58 * time.Microsecond
	return c
}

// via5Costs: zero-copy — data leaves straight from the pinned file cache
// and is sent to the client right out of the communication buffer.
func via5Costs() CostModel {
	c := baseCosts()
	c.SendSmall = 5 * time.Microsecond
	c.RecvSmall = 4 * time.Microsecond
	c.SendData = 10 * time.Microsecond
	c.RecvData = 6 * time.Microsecond
	return c
}

// robustCosts: single-copy (§7's recommendation) — one copy into a
// pre-allocated pinned bounce buffer per data transfer, so the file cache
// itself needs no pinning. Performance lands between VIA-PRESS-3 and the
// fragile zero-copy VIA-PRESS-5.
func robustCosts() CostModel {
	c := baseCosts()
	c.SendSmall = 5 * time.Microsecond
	c.RecvSmall = 4 * time.Microsecond
	c.SendData = 25 * time.Microsecond
	c.RecvData = 20 * time.Microsecond
	return c
}
