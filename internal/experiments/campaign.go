package experiments

import (
	"maps"
	"sync"
	"time"

	"vivo/internal/core"
	"vivo/internal/faults"
	"vivo/internal/press"
	"vivo/internal/sim"
)

// faultClassOf maps an injectable fault to its fault-load row.
var faultClassOf = map[faults.Type]core.FaultClass{
	faults.LinkDown:      core.LinkDown,
	faults.SwitchDown:    core.SwitchDown,
	faults.NodeCrash:     core.NodeCrash,
	faults.NodeHang:      core.NodeFreeze,
	faults.KernelMemory:  core.MemAlloc,
	faults.MemoryPinning: core.MemPin,
	faults.AppCrash:      core.ProcCrash,
	faults.AppHang:       core.ProcHang,
	faults.BadPtrNull:    core.BadNull,
	faults.BadPtrOffset:  core.BadOffPtr,
	faults.BadSizeOffset: core.BadOffSize,
}

// Campaign is the full phase-1 measurement matrix: every PRESS version
// under every fault, plus each version's normal-operation throughput. It
// is the input to every phase-2 figure. Opt holds the options the
// campaign was measured with, normalized by memoKey (Parallel is zeroed:
// the worker count cannot influence campaign contents).
type Campaign struct {
	Opt  Options
	Tn   map[press.Version]float64
	Meas map[press.Version]map[core.FaultClass]core.Measured
}

// campaignEntry is one memoized campaign: the mutex-protected cache maps
// options to entries, and the entry's Once runs the measurement exactly
// once, outside the cache lock. Concurrent callers with the same options
// share one computation; callers with different options proceed
// independently rather than serializing behind a campaign-wide lock.
type campaignEntry struct {
	once sync.Once
	c    *Campaign
}

var (
	campaignMu    sync.Mutex
	campaignCache = map[Options]*campaignEntry{}
)

// RunCampaign measures (or returns the memoized) campaign over
// press.Versions for the options. The cache key ignores
// Options.Parallel: the worker count never changes results, only
// wall-clock time, so a campaign computed at one setting is returned
// verbatim for any other.
func RunCampaign(opt Options) *Campaign {
	key := opt.memoKey()
	campaignMu.Lock()
	e, ok := campaignCache[key]
	if !ok {
		e = &campaignEntry{}
		campaignCache[key] = e
	}
	campaignMu.Unlock()
	e.once.Do(func() { e.c = measure(opt, press.Versions...) })
	return e.c
}

// measure executes the phase-1 matrix for the given versions — one Tn
// measurement plus len(faults.AllTypes) fault injections per version —
// fanned out across opt.workers() goroutines. Each cell simulates on a
// private sim.Kernel seeded only by (opt.Seed, version, fault), and every
// result lands in a slot indexed by (version, fault) before the maps are
// assembled, so the returned campaign is bit-identical at any worker
// count.
func measure(opt Options, versions ...press.Version) *Campaign {
	nf := len(faults.AllTypes)
	perVersion := 1 + nf // slot 0: Tn; slots 1..nf: fault runs
	tns := make([]float64, len(versions))
	meas := make([]core.Measured, len(versions)*nf)
	ForEach(len(versions)*perVersion, opt.workers(), func(i int) {
		vi, job := i/perVersion, i%perVersion
		v := versions[vi]
		if job == 0 {
			tns[vi] = measureTn(v, opt)
			return
		}
		meas[vi*nf+job-1] = RunFault(v, faults.AllTypes[job-1], opt).Measured
	})
	c := &Campaign{
		Opt:  opt.memoKey(),
		Tn:   make(map[press.Version]float64, len(versions)),
		Meas: make(map[press.Version]map[core.FaultClass]core.Measured, len(versions)),
	}
	for vi, v := range versions {
		c.Tn[v] = tns[vi]
		byClass := make(map[core.FaultClass]core.Measured, nf)
		for fi, ft := range faults.AllTypes {
			byClass[faultClassOf[ft]] = meas[vi*nf+fi]
		}
		c.Meas[v] = byClass
	}
	return c
}

// with returns a campaign holding the versions of both c and ext. It
// copies the maps, so c — typically the memoized campaign — is never
// mutated.
func (c *Campaign) with(ext *Campaign) *Campaign {
	out := &Campaign{Opt: c.Opt, Tn: maps.Clone(c.Tn), Meas: maps.Clone(c.Meas)}
	maps.Copy(out.Tn, ext.Tn)
	maps.Copy(out.Meas, ext.Meas)
	return out
}

func measureTn(v press.Version, opt Options) float64 {
	if !opt.MeasureTn {
		return press.Table1Throughput(v)
	}
	k := sim.New(opt.Seed*100 + int64(v))
	return press.MeasureThroughput(k, opt.Config(v),
		1.3*press.Table1Throughput(v), 10*time.Second, 30*time.Second)
}

// Model assembles the phase-2 model for one version under the given fault
// load, each class's stages through stageFor.
func (c *Campaign) Model(v press.Version, load core.FaultLoad) core.Model {
	behavior := make(map[core.FaultClass]core.StageParams, len(c.Meas[v]))
	for class := range c.Meas[v] {
		if rates, ok := load[class]; ok {
			behavior[class] = c.stageFor(v, class, rates)
		}
	}
	return core.Model{
		Tn:       c.Tn[v],
		Nodes:    4,
		Behavior: behavior,
		Load:     load,
	}
}

// stageFor returns the stage parameters this version exhibited for the
// given class under the given rates. Stage throughputs measured at the
// fault-run load are rescaled to the version's capacity (the fractions,
// not the absolute levels, are what phase 1 measures).
func (c *Campaign) stageFor(v press.Version, class core.FaultClass, rates core.Rates) core.StageParams {
	meas := c.Meas[v][class]
	sp := meas.StageParams(rates, c.Opt.Env)
	tn := c.Tn[v]
	if meas.Tn > 0 {
		scale := tn / meas.Tn
		for s := core.StageA; s < core.NumStages; s++ {
			sp.T[s] *= scale
			if sp.T[s] > tn {
				sp.T[s] = tn
			}
		}
	}
	return sp
}

// packetDrop is the extra fault of transient packet drops on a VIA
// version at the given MTTF: each drop resets the channel, behaving like
// a process crash (3-minute repair) on each of the four nodes.
func (c *Campaign) packetDrop(v press.Version, mttf time.Duration) core.ExtraFault {
	rates := core.Rates{MTTF: mttf, MTTR: 3 * time.Minute}
	return core.ExtraFault{Name: "packet-drop", Rates: rates, Stages: c.stageFor(v, core.ProcCrash, rates), Count: 4}
}

// systemCrash is the extra fault of a system crash from immature VIA
// hardware or firmware at the given MTTF, behaving like a switch crash
// (1-hour repair).
func (c *Campaign) systemCrash(v press.Version, mttf time.Duration) core.ExtraFault {
	rates := core.Rates{MTTF: mttf, MTTR: time.Hour}
	return core.ExtraFault{Name: "system-crash", Rates: rates, Stages: c.stageFor(v, core.SwitchDown, rates), Count: 1}
}
