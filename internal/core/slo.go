package core

import (
	"fmt"
	"strings"
	"time"

	"vivo/internal/latency"
	"vivo/internal/metrics"
	"vivo/internal/sim"
)

// This file is the SLO side of stage extraction. The throughput view
// (Extract) asks "how much work did each stage complete"; the SLO view
// asks "what fraction of the requests that settled in each stage came
// back within the latency target". Both segment the run over the same
// StageWindows, and the SLO fractions fold with the same environmental
// stage durations (StageParams) the AT/AA model uses, yielding an
// AA-style number: the long-run fraction of requests answered within
// the SLO. The distinction matters exactly where the paper's
// architecture comparison lives — a version can keep its throughput
// (requests eventually answered) while every answer during the fault
// blows the latency budget.

// SLOProfile is the per-stage SLO accounting of one fault-injection
// run against a fixed latency target.
type SLOProfile struct {
	// Target is the latency threshold.
	Target time.Duration

	// Pre counts the steady-state baseline window just before
	// injection (the same preWindow ExtractLatency uses).
	Pre latency.SLOCount

	// Q[s] counts stage s's window. Stages that do not exist in the
	// run (F and G always, most stages for instantaneous faults) stay
	// zero.
	Q [NumStages]latency.SLOCount

	// Fault counts the whole component-fault window
	// [Injected, Repaired) — what a client saw during the outage,
	// regardless of stage structure.
	Fault latency.SLOCount

	// Frac[s] is the fraction for stage s after the same fallbacks
	// Extract applies to throughput (an unobserved stage inherits the
	// regime that persists through it). Frac[StageF] is 0 (the
	// operator reset is downtime) and Frac[StageG] mirrors stage D
	// (the warm-up transient is modelled like the repair transient).
	Frac [NumStages]float64

	// Worst is the lowest per-bin fraction of the run (bins with
	// fewer than WorstMinCount settled requests skipped), at WorstAt.
	Worst   float64
	WorstAt sim.Time
}

// WorstMinCount is the minimum settled requests for a bin to count
// toward the worst-window scan (mirrors the latency table's floor).
const WorstMinCount = 10

// ExtractSLO counts rec's samples against the target inside the run's
// stage windows — the SLO extractor over the shared StageWindows
// segmentation. The Frac synthesis mirrors Extract's throughput
// fallbacks case for case, so the folded SLO availability weighs each
// stage with the regime Extract would report for it.
func ExtractSLO(obs RunObservation, rec *metrics.Recorder, target time.Duration) SLOProfile {
	w := StageWindows(obs)
	p := SLOProfile{Target: target}
	p.Pre = rec.WindowUnder(w.Pre.From, w.Pre.To, target)
	p.Fault = rec.WindowUnder(obs.Injected, obs.Repaired, target)
	p.WorstAt, p.Worst = rec.WorstWindowUnder(target, WorstMinCount)
	for s := StageA; s < NumStages; s++ {
		if w.Valid[s] {
			p.Q[s] = rec.WindowUnder(w.Stage[s].From, w.Stage[s].To, target)
		}
	}

	if obs.Instantaneous {
		// One degraded window (stage C) plus the tail (stage E),
		// mirroring Extract: an empty C window inherits the tail
		// regime, and the synthesized B and D stages repeat C.
		p.Frac[StageE] = p.Q[StageE].Fraction()
		p.Frac[StageC] = p.Q[StageC].Fraction()
		if w.Stage[StageC].Empty() {
			p.Frac[StageC] = p.Frac[StageE]
		}
		p.Frac[StageA] = 1
		p.Frac[StageB] = p.Frac[StageC]
		p.Frac[StageD] = p.Frac[StageC]
		p.Frac[StageG] = p.Frac[StageD]
		return p
	}

	p.Frac[StageA] = p.Q[StageA].Fraction()
	p.Frac[StageB] = p.Q[StageB].Fraction()

	// Stage C: without requests settling in the window, the regime
	// that persists through the repair time is B's (detected) or A's
	// (never detected) — Extract's switch, fraction-flavoured.
	switch {
	case !w.Stage[StageC].Empty():
		p.Frac[StageC] = p.Q[StageC].Fraction()
	case obs.HasDetect:
		p.Frac[StageC] = p.Frac[StageB]
	default:
		p.Frac[StageC] = p.Frac[StageA]
	}

	p.Frac[StageD] = p.Q[StageD].Fraction()
	p.Frac[StageE] = p.Q[StageE].Fraction()
	if w.Stage[StageE].Empty() {
		p.Frac[StageE] = p.Frac[StageD]
	}

	// Stage F is the operator reset (service down: every request in
	// flight violates), stage G the post-reset warm-up, modelled like
	// stage D — matching StageParams' synthesis of D[F] and D[G].
	p.Frac[StageF] = 0
	p.Frac[StageG] = p.Frac[StageD]
	return p
}

// ApplySLO copies the profile's target, baseline and per-stage
// fractions into the measurement, arming SLOAvailability.
func (m *Measured) ApplySLO(p SLOProfile) {
	m.SLOTarget = p.Target
	m.SLOPre = p.Pre.Fraction()
	m.SLOFrac = p.Frac
}

// SLOAvailability folds the per-stage SLO fractions with one fault
// source's rates into the long-run fraction of requests answered
// within the SLO, the AA analogue:
//
//	A_slo = (1 - n·ΣsDs/MTTF)·Frac_pre + n·Σs (Ds/MTTF)·Frac_s
//
// with the stage durations Ds taken from StageParams (measured
// transients, MTTR-filled stage C, environment-synthesized E..G when
// splintered) and n the component multiplicity. During the 1-n·W
// fault-free fraction of time the service answers at its baseline
// SLO fraction; during each stage it answers at that stage's.
func (m Measured) SLOAvailability(rates Rates, env Environment, components int) float64 {
	sp := m.StageParams(rates, env)
	mttf := rates.MTTF.Seconds()
	if mttf <= 0 {
		return m.SLOPre
	}
	n := float64(components)
	if components <= 0 {
		n = 1
	}
	sumW := 0.0
	degraded := 0.0
	for s := StageA; s < NumStages; s++ {
		w := sp.D[s].Seconds() / mttf * n
		sumW += w
		degraded += w * m.SLOFrac[s]
	}
	return (1-sumW)*m.SLOPre + degraded
}

// String renders the profile: the baseline, each observed stage's
// fraction with its counts, the whole fault window, and the worst
// one-second window.
func (p SLOProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  slo target: %v\n", p.Target)
	fmt.Fprintf(&b, "  pre-fault:  %s\n", fmtSLOCount(p.Pre))
	for s := StageA; s < NumStages; s++ {
		if p.Q[s].Total() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  stage %s:    %s\n", s, fmtSLOCount(p.Q[s]))
	}
	fmt.Fprintf(&b, "  fault win:  %s\n", fmtSLOCount(p.Fault))
	fmt.Fprintf(&b, "  worst 1s:   frac=%.4f at t=%.0fs\n", p.Worst, p.WorstAt.Seconds())
	return b.String()
}

func fmtSLOCount(c latency.SLOCount) string {
	return fmt.Sprintf("frac=%.4f under=%d served=%d failed=%d",
		c.Fraction(), c.Under, c.Served, c.Failed)
}
