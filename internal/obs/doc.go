// Package obs is the observation pipeline: the one place a simulated
// PRESS run is assembled and instrumented. A Harness owns the whole run
// protocol — kernel, tracer, deployment warm-up, steady client load,
// fault injection, observation, drain — and Probes plug metrics onto it
// without touching the protocol.
//
// Before this package, every consumer (experiments.RunFaultTrace,
// chaos.runOne, cmd/presssim) hand-assembled the same sequence and each
// new metric forked another copy. Now they are thin configurations of
// one Harness, and the architecture test (arch_test.go at the module
// root) keeps it that way: only this package may construct a
// metrics.Recorder or set a kernel tracer for a cluster run.
//
// # Probe SPI
//
// A Probe has two hooks:
//
//   - Attach(rt) runs after the kernel and throughput recorder exist but
//     before anything can emit an event. A probe wires itself in here:
//     register a trace sink with rt.Tee, turn on latency tracking in
//     rt.Rec, keep rt.K for timestamps.
//   - Finalize(run) runs after the kernel stops, to fold the run's end
//     state into the probe's typed result.
//
// The contract that makes probes composable is zero perturbation:
// attaching a probe must not draw randomness, schedule events, or
// otherwise change the simulation. Everything a probe sees — trace
// events, recorder hooks — is emitted identically whether or not anyone
// listens, so a run's results are bit-identical under any probe set
// (TestHarnessProbesDoNotPerturb pins this).
//
// Concrete probes: Throughput (the per-second timeline and marks),
// Latency (turns on the end-to-end latency histograms in the run's
// recorder, read back from Run.Rec), Hops (per-hop decomposition —
// accept-queue / forward / serve — correlated from the trace's request
// spans into three more latency-tracking recorders) and QueueDepth (send-path queue-depth
// counters); chaos.EventFold, from outside, folds the stream for the
// chaos oracles as it arrives. No probe keeps a copy of the run.
//
// The harness feeds every probe-registered sink, in registration order,
// before the external Harness.Sink — so a probe's tee and a JSON trace
// file see the same stream in the same order.
package obs
