package experiments

import (
	"fmt"
	"strings"
	"time"

	"vivo/internal/core"
	"vivo/internal/faults"
	"vivo/internal/latency"
	"vivo/internal/press"
	"vivo/internal/sim"
)

// This file is the latency side of the campaign: the same (version, fault)
// matrix as Table 2, but summarised by what a single client experiences —
// end-to-end quantiles before, during, and after the fault — instead of
// aggregate throughput. Throughput hides tail pain: two versions Table 2
// ranks as equivalent can differ by an order of magnitude at p99 while a
// node is down, and this table is where that shows.

// LatencyFaults are the fault classes the latency table covers by default:
// the hard node failure and the byzantine-ish stall, the two classes whose
// latency signatures differ most across communication architectures.
var LatencyFaults = []faults.Type{faults.NodeCrash, faults.AppHang}

// LatencyRow is one (version, fault) cell of the latency-performability
// table: the pre-fault baseline, the quantiles over the whole component
// fault window, the converged tail window, and the worst per-second p99
// observed anywhere in the run.
type LatencyRow struct {
	Version press.Version
	Fault   faults.Type

	// Pre, Faulted, Recovered are the client-visible quantiles of the
	// steady window before injection, the [Injected, Repaired) window,
	// and the final 30 s of the run.
	Pre       latency.Quantiles
	Faulted   latency.Quantiles
	Recovered latency.Quantiles

	// Stages is the full per-stage profile (same boundaries as Measured).
	Stages core.StageLatencies

	// WorstP99 is the highest per-second-bin p99 in the run and when it
	// occurred (bins with fewer than worstMinCount served requests are
	// skipped as noise).
	WorstP99   time.Duration
	WorstP99At sim.Time
}

// worstMinCount is the minimum served requests a one-second bin needs
// before its p99 can claim the run's worst — below that the quantile is
// a handful of samples, not a regime.
const worstMinCount = 10

// LatencyCell runs one fault experiment with latency recording forced on
// and summarises it as a table row.
func LatencyCell(v press.Version, ft faults.Type, opt Options) LatencyRow {
	opt.Latency = true
	fr := RunFault(v, ft, opt)
	return latencyRow(fr)
}

func latencyRow(fr FaultRun) LatencyRow {
	row := LatencyRow{
		Version:   fr.Version,
		Fault:     fr.Fault,
		Pre:       fr.StageLat.Pre,
		Faulted:   core.FaultWindow(fr.Obs, fr.Latency),
		Recovered: core.RecoveredWindow(fr.Obs, fr.Latency),
		Stages:    *fr.StageLat,
	}
	row.WorstP99At, row.WorstP99 = fr.Latency.LatencyTimeline().WorstP99(worstMinCount)
	return row
}

// LatencyTable builds the latency-performability matrix: every Table-1
// version against each fault class (LatencyFaults when none are given),
// fanning the independent runs out like the campaign does. Rows are
// ordered version-major, fault-minor, and are bit-identical at any
// Options.Parallel.
func LatencyTable(opt Options, fts ...faults.Type) []LatencyRow {
	if len(fts) == 0 {
		fts = LatencyFaults
	}
	versions := press.Versions
	rows := make([]LatencyRow, len(versions)*len(fts))
	ForEach(len(rows), opt.workers(), func(i int) {
		rows[i] = LatencyCell(versions[i/len(fts)], fts[i%len(fts)], opt)
	})
	return rows
}

// RenderLatencyTable formats the matrix with one line per (version, fault):
// pre-fault p50/p99 as the baseline, then the fault window's p99/p999 and
// failure count — the numbers that separate versions Table 2 calls
// equivalent.
func RenderLatencyTable(rows []LatencyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Latency under faults (per-request, end-to-end)\n")
	fmt.Fprintf(&b, "%-14s %-14s %10s %10s | %10s %10s %8s | %10s %10s\n",
		"version", "fault", "pre p50", "pre p99",
		"fault p99", "fault p999", "failed", "worst p99", "at")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-14s %10s %10s | %10s %10s %8d | %10s %8.0fs\n",
			r.Version, r.Fault,
			fmtLat(r.Pre.P50), fmtLat(r.Pre.P99),
			fmtLat(r.Faulted.P99), fmtLat(r.Faulted.P999), r.Faulted.Failed,
			fmtLat(r.WorstP99), r.WorstP99At.Seconds())
	}
	return b.String()
}

func fmtLat(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1e3)
}

// FigureLatency is the latency companion to Figure3: node-crash runs of
// the three headline versions with latency recording on, for rendering
// with RenderLatencyTimeline.
func FigureLatency(opt Options) []FaultRun {
	opt.Latency = true
	return timelines(opt, faults.NodeCrash,
		press.TCPPress, press.TCPPressHB, press.VIAPress5)
}

// RenderLatencyTimeline formats one latency-recorded fault run: the
// windowed percentile timeline followed by the per-stage profile. Panics
// if the run was made without Options.Latency.
func RenderLatencyTimeline(fr FaultRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s under %s (offered %.0f req/s), per-request latency\n",
		fr.Version, fr.Fault, fr.OfferedLoad)
	fmt.Fprint(&b, fr.Latency.LatencyTimeline().String())
	fmt.Fprintf(&b, "stage profile:\n%s", fr.StageLat.String())
	return b.String()
}
