package core

import (
	"fmt"
	"time"
)

// FaultClass enumerates the fault-load rows of Table 3.
type FaultClass int

const (
	// LinkDown: intra-cluster link failure.
	LinkDown FaultClass = iota
	// SwitchDown: cluster switch failure.
	SwitchDown
	// NodeCrash: hard reboot.
	NodeCrash
	// NodeFreeze: node hang.
	NodeFreeze
	// MemAlloc: kernel memory allocation failure.
	MemAlloc
	// MemPin: pinnable memory exhaustion.
	MemPin
	// ProcCrash: application process crash.
	ProcCrash
	// ProcHang: application process hang.
	ProcHang
	// BadNull: NULL pointer passed to the communication layer.
	BadNull
	// BadOffPtr: off-by-N data pointer.
	BadOffPtr
	// BadOffSize: off-by-N size.
	BadOffSize

	numClasses
)

// Classes lists all fault classes in Table 3 order.
var Classes = []FaultClass{
	LinkDown, SwitchDown, NodeCrash, NodeFreeze,
	MemPin, MemAlloc,
	ProcCrash, ProcHang, BadNull, BadOffPtr, BadOffSize,
}

// String returns the fault-load row name.
func (c FaultClass) String() string {
	switch c {
	case LinkDown:
		return "link-down"
	case SwitchDown:
		return "switch-down"
	case NodeCrash:
		return "node-crash"
	case NodeFreeze:
		return "node-freeze"
	case MemAlloc:
		return "memory-allocation"
	case MemPin:
		return "memory-pinning"
	case ProcCrash:
		return "process-crash"
	case ProcHang:
		return "process-hang"
	case BadNull:
		return "bad-param-null-pointer"
	case BadOffPtr:
		return "bad-param-off-by-N-pointer"
	case BadOffSize:
		return "bad-param-off-by-N-size"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// AppFaultShare is the division of the overall application fault rate
// across error classes, following the distribution the paper takes from
// Chillarege et al.: process crash 40%, process hang 40%, null pointer 8%,
// off-by-N data pointer 9%, off-by-N size 2%. The paper's ratios sum to
// 99% ("approximately"); rates derived from them are normalised so the
// overall application rate is exact.
var AppFaultShare = map[FaultClass]float64{
	ProcCrash:  0.40,
	ProcHang:   0.40,
	BadNull:    0.08,
	BadOffPtr:  0.09,
	BadOffSize: 0.02,
}

// FaultLoad maps each fault class to its rates.
type FaultLoad map[FaultClass]Rates

// Clone returns a copy of the load.
func (fl FaultLoad) Clone() FaultLoad {
	out := make(FaultLoad, len(fl))
	for c, r := range fl {
		out[c] = r
	}
	return out
}

// DefaultFaultLoad reproduces Table 3. Non-application rows are fixed; the
// application rows split appMTTF (the per-process mean time between
// application faults of any kind — "var." in the table, swept from one per
// day to one per month) according to AppFaultShare. All MTTRs are 3
// minutes except the switch's one hour.
func DefaultFaultLoad(appMTTF time.Duration) FaultLoad {
	const day = 24 * time.Hour
	fl := FaultLoad{
		LinkDown:   {MTTF: 182 * day, MTTR: 3 * time.Minute}, // 6 months
		SwitchDown: {MTTF: 365 * day, MTTR: time.Hour},       // 1 year
		NodeCrash:  {MTTF: 14 * day, MTTR: 3 * time.Minute},  // 2 weeks
		NodeFreeze: {MTTF: 14 * day, MTTR: 3 * time.Minute},
		MemPin:     {MTTF: 61 * day, MTTR: 3 * time.Minute},
		MemAlloc:   {MTTF: 61 * day, MTTR: 3 * time.Minute},
	}
	total := appShareTotal()
	for c, share := range AppFaultShare {
		fl[c] = Rates{
			MTTF: time.Duration(float64(appMTTF) * total / share),
			MTTR: 3 * time.Minute,
		}
	}
	return fl
}

func appShareTotal() float64 {
	// Sum in the fixed Classes order, not map order: float addition is
	// not associative, so a randomized iteration order flips the total
	// by an ulp between runs (0.99 vs 0.99000…01), which shifts every
	// derived MTTF by a nanosecond and breaks run-to-run determinism.
	t := 0.0
	for _, c := range Classes {
		t += AppFaultShare[c]
	}
	return t
}

// WithAppMTTF returns a copy of the load with the application rows redone
// for a new overall application fault rate.
func (fl FaultLoad) WithAppMTTF(appMTTF time.Duration) FaultLoad {
	out := fl.Clone()
	total := appShareTotal()
	for c, share := range AppFaultShare {
		r := out[c]
		r.MTTF = time.Duration(float64(appMTTF) * total / share)
		out[c] = r
	}
	return out
}

// ComponentCount returns the multiplicity of the faulted component class
// in an n-node cluster: n links, one switch, and per-node/per-process
// faults on each of the n nodes.
func ComponentCount(c FaultClass, nodes int) int {
	if c == SwitchDown {
		return 1
	}
	return nodes
}

// Day and Week and Month are convenient MTTF units for the sensitivity
// scenarios.
const (
	Day   = 24 * time.Hour
	Week  = 7 * Day
	Month = 30 * Day
)
