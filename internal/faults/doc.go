// Package faults is the Mendosus-equivalent fault injector: it applies
// the fault model of Table 2 — network hardware faults, node faults,
// operating system resource exhaustion and application faults — to a live
// simulated PRESS deployment, in real (virtual) time, and annotates the
// metrics recorder with injection and repair marks used by stage
// extraction.
//
// # Fault model
//
// [Type] enumerates the injectables: [LinkDown] and [SwitchDown] (network
// hardware), [NodeCrash] and [NodeHang] (nodes), [KernelMemory] and
// [MemoryPinning] (OS resource exhaustion), [AppCrash] and [AppHang]
// (application), and the bad-parameter interpositions [BadPtrNull],
// [BadPtrOffset] and [BadSizeOffset], which corrupt exactly one
// intra-cluster send and let the substrate's error semantics decide the
// damage. Duration faults ([Type.Instantaneous] == false) are repaired
// after the scheduled downtime and marked with [MarkRepaired];
// instantaneous faults leave repair to the deployment's restart daemon.
//
// [Spec] is one scheduled fault (type, target, injection time,
// duration), with the compact string and JSON forms chaos schedules,
// repro artifacts and obs.Harness fault lists all share.
//
// # Worked example
//
// An injector binds a kernel, a deployment and a recorder; experiments
// schedule faults in virtual time before running the kernel:
//
//	k := sim.New(1)
//	cfg := press.DefaultConfig(press.TCPPress)
//	rec := metrics.NewRecorder(k, time.Second)
//	d := press.NewDeployment(k, cfg)
//	d.Start()
//	d.WarmStart()
//
//	inj := faults.NewInjector(k, d, rec)
//	// 90 s of severed link on node 3, starting at t=30s.
//	inj.Schedule(faults.LinkDown, 3, 30*time.Second, 90*time.Second)
//	k.Run(270 * time.Second)
//
// The recorder's marks then carry the injection, detection and repair
// instants that internal/experiments turns into the paper's 7-stage
// behaviour model (see experiments.RunFault for the full protocol).
package faults
