// Package experiments regenerates every table and figure of the paper's
// evaluation: it runs phase-1 fault-injection experiments on the simulated
// PRESS deployment, extracts 7-stage models, assembles phase-2
// performability models, and renders the same rows and series the paper
// reports (Table 1, Figures 2-10, the ≈4× crossover claim), plus the
// extension studies (ROBUST-PRESS, fault-rate sweeps, cluster scaling,
// overlapping faults).
//
// # Structure
//
// Everything is driven by an [Options] value fixing scale, timing and
// seed; [Quick] and [Full] return the two standard configurations. The
// phase-1 primitive is [RunFault], which performs a single experiment —
// warm cluster, steady load, one fault, observation through recovery —
// and extracts the paper's 7-stage behaviour model from the throughput
// timeline. [RunCampaign] runs the full matrix (every PRESS version under
// every Table-2 fault, plus each version's saturation throughput) and
// memoizes the result per Options; every phase-2 figure ([Figure6]
// through [Figure10], [Crossover], the sweeps) is pure arithmetic on a
// memoized [Campaign].
//
// # Parallelism and determinism
//
// Each experiment builds a private [vivo/internal/sim.Kernel] whose seed
// is derived only from (Options.Seed, version, fault), and shares no
// mutable state with any other run, so the matrix is embarrassingly
// parallel. RunCampaign, the figure drivers and the extension studies fan
// their runs out over a worker pool bounded by Options.Parallel (default
// runtime.GOMAXPROCS(0)); results are slotted by index before maps are
// assembled, so the same seed produces bit-identical campaigns at any
// worker count. Campaign memoization is per-key singleflight: concurrent
// callers with equal Options share one computation, while callers with
// different Options run concurrently instead of serializing behind a
// campaign-wide lock.
//
// Determinism makes the whole stack pinnable: TestGoldenSeed1 compares
// Table 1 plus the complete quick-scale campaign for seed 1 byte-for-byte
// against testdata/golden_seed1.txt (run via `make golden`; regenerate
// intentional behaviour changes with -update), and every
// [CampaignSections] rendering of that campaign against the checked-in
// results/quick_campaign.txt.
//
// # Running one fault experiment
//
// The minimal phase-1 experiment — inject a transient link fault into a
// TCP-PRESS deployment and inspect the reaction — is:
//
//	opt := experiments.Quick()           // reduced scale, deterministic seed 1
//	fr := experiments.RunFault(press.TCPPress, faults.LinkDown, opt)
//	fmt.Println(fr.String())             // one-line stage summary
//	fmt.Print(fr.Timeline.Plot(8, 96))   // ASCII throughput timeline
//	m := fr.Measured                     // extracted 7-stage parameters
//	fmt.Printf("detected after %v, degraded to %.0f req/s\n", m.DA, m.TC)
//
// and the full paper evaluation at 8 workers is:
//
//	opt.Parallel = 8
//	c := experiments.RunCampaign(opt)
//	fmt.Print(experiments.RenderFigure6(experiments.Figure6(c)))
//
// cmd/faultinject and cmd/pressbench are thin command-line frontends over
// exactly these calls.
package experiments
