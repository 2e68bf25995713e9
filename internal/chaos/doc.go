// Package chaos is the randomized fault-campaign engine: property-based
// chaos testing on top of the deterministic simulation stack.
//
// The paper's Mendosus methodology injects one fault at a time from a
// fixed menu (Table 2). This package explores the fault *space* instead:
// a seeded generator draws multi-fault schedules — random fault type ×
// target node × injection time × duration, overlapping and repeated,
// under a configurable fault budget — and runs each against a chosen
// PRESS version. After every run a pluggable set of invariant oracles
// judges the outcome:
//
//   - request conservation: every issued request records exactly one
//     outcome (served, refused, connect-timeout or request-timeout);
//     nothing is silently lost;
//   - liveness: after load stops and the timeout windows drain, no
//     request remains admitted-but-unresolved;
//   - post-heal recovery: throughput returns to within ε of the no-fault
//     baseline within a stabilization window after the last heal, for
//     fault classes the version is expected to recover from (Recoverable);
//   - membership convergence: after stabilization every alive, joined
//     server agrees on the member set (same gate);
//   - trace well-formedness: every EvFaultInject has exactly one matching
//     EvFaultHeal;
//   - no send after eviction: a server does not address a peer it
//     removed from its view until something re-establishes the pair;
//   - no admission on a crashed node: no request is admitted between a
//     node-crash injection and its heal.
//
// The last three read an EventFold, which folds each event as the run
// emits it, so no run's trace is kept.
//
// Because every run is deterministic — the kernel, the workload and the
// schedule all derive from one seed — a violated invariant is not a flaky
// observation but an exact coordinate in the fault space. The engine
// exploits that: Shrink delta-debugs the first failing schedule of each
// distinct violation set (drop faults, halve durations, re-run
// deterministically) down to a minimal failing schedule, and the result
// is emitted as a JSON repro artifact that `cmd/chaos -replay
// repro.json` reproduces exactly, byte-identical trace included.
//
// Every campaign runs one search loop, RunGuided: a no-fault baseline,
// then rounds that plan a batch of schedules against a corpus of runs
// that lit new coverage bits, fan the batch out across
// experiments.ForEach workers, and merge verdicts and coverage in slot
// order. Random search is its one-round case: with Batch >= Budget every
// schedule is planned against the empty corpus, so each is a fresh
// Generate draw. Smaller batches let later rounds mutate corpus members
// (coverage-guided search). Like the rest of the simulation stack,
// results are bit-identical at any Parallel setting.
package chaos
