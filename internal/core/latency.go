package core

import (
	"fmt"
	"strings"
	"time"

	"vivo/internal/latency"
	"vivo/internal/metrics"
)

// StageLatencies is the latency side of the 7-stage extraction: the
// end-to-end request quantiles of each observable stage window, segmented
// by the same boundary instants Extract uses for throughput, so "stage C"
// means the same time span in both views. Pre is the steady-state window
// just before injection — the baseline the stages degrade from. The
// modeled stages F and G have no measured requests (they are synthesized
// from the environment, not observed), so their entries stay empty.
type StageLatencies struct {
	Pre latency.Quantiles
	Q   [NumStages]latency.Quantiles
}

// preWindow is how much steady state before injection feeds the baseline
// quantiles (matches the Tn measurement window in experiments).
const preWindow = 20 * time.Second

// ExtractLatency segments rec's samples into the run's stage windows:
// the end-to-end latency extractor over the shared StageWindows
// segmentation. For instantaneous faults the whole observable response
// is one degraded window (stage C), mirroring Extract.
func ExtractLatency(obs RunObservation, rec *metrics.Recorder) StageLatencies {
	return stageLatencies(StageWindows(obs), rec)
}

// stageLatencies windows rec's samples over w: the baseline and every
// observable stage.
func stageLatencies(w Windows, rec *metrics.Recorder) StageLatencies {
	var sl StageLatencies
	sl.Pre = rec.Window(w.Pre.From, w.Pre.To)
	for s := StageA; s < NumStages; s++ {
		if w.Valid[s] {
			sl.Q[s] = rec.Window(w.Stage[s].From, w.Stage[s].To)
		}
	}
	return sl
}

// FaultWindow returns the quantiles of the whole component-fault window
// [Injected, Repaired) — the degraded service a client actually saw,
// regardless of how the stages subdivide it.
func FaultWindow(obs RunObservation, rec *metrics.Recorder) latency.Quantiles {
	return rec.Window(obs.Injected, obs.Repaired)
}

// RecoveredWindow returns the quantiles of the final tail window
// [End-30s, End), the regime the run converged to (the same window
// Extract's tail level uses).
func RecoveredWindow(obs RunObservation, rec *metrics.Recorder) latency.Quantiles {
	return rec.Window(obs.End-30*time.Second, obs.End)
}

// String renders the per-stage profile, one line per stage with samples,
// skipping empty stages.
func (sl StageLatencies) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  pre-fault: %s\n", sl.Pre)
	for s := StageA; s < NumStages; s++ {
		if sl.Q[s].Count == 0 && sl.Q[s].Failed == 0 {
			continue
		}
		fmt.Fprintf(&b, "  stage %s:   %s\n", s, sl.Q[s])
	}
	return b.String()
}
