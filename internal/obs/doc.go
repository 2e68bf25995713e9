// Package obs is the observation pipeline: the one place a simulated
// PRESS run is assembled and instrumented. A Harness owns the whole run
// protocol — kernel, tracer, deployment warm-up, steady client load,
// fault injection, observation, drain — and trace sinks observe it
// without touching the protocol.
//
// Before this package, every consumer (experiments.RunFaultTrace,
// chaos.runOne, cmd/presssim) hand-assembled the same sequence and each
// new metric forked another copy. Now they are thin configurations of
// one Harness, and the architecture test (arch_test.go at the module
// root) keeps it that way: only this package may construct a
// metrics.Recorder or set a kernel tracer for a cluster run.
//
// # Observing a run
//
// A run is observed in two ways, both switched on before the kernel
// starts:
//
//   - Harness.Latency turns on the end-to-end latency histograms in the
//     run's recorder (read back from Run.Rec) and, with them, the
//     per-request trace spans.
//   - Harness.Run(sinks...) feeds the run's event stream to every non-nil
//     trace.Sink, in argument order, as the events are emitted. Hops (the
//     per-hop decomposition — accept-queue / forward / serve — correlated
//     from the request spans into three latency-tracking recorders) is
//     one such sink; chaos.EventFold, from outside, folds the stream for
//     the chaos oracles; a trace.FileSink writes it to disk.
//
// Callers pass their folding sinks before a file sink, so both see the
// same stream in the same order. No sink keeps a copy of the run.
//
// The contract that makes sinks composable is zero perturbation: a sink
// must not draw randomness, schedule events, or otherwise change the
// simulation. Every event is emitted identically whether or not anyone
// listens, so a run's results are bit-identical under any sink set
// (TestSinksDoNotPerturbTheRun pins this).
package obs
