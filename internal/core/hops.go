package core

import (
	"fmt"
	"strings"

	"vivo/internal/metrics"
)

// This file is the per-hop latency view of stage extraction: instead of
// one end-to-end profile per stage, one profile per hop per stage, so a
// stage's latency damage can be attributed to the hop that caused it
// (the accept queue backing up, the intra-cluster forward stalling, or
// the service work itself slowing down).

// NamedHop pairs a hop label with the recorder holding its samples —
// the bridge between the observation pipeline's hop sink and the
// extraction layer, which does not know how hops are measured.
type NamedHop struct {
	Name string
	Rec  *metrics.Recorder
}

// HopProfile is one hop's StageLatencies: its quantiles segmented into
// the run's stage windows, plus the pre-fault baseline.
type HopProfile struct {
	Hop string
	StageLatencies
}

// StageHops segments each hop's samples over the run's shared
// StageWindows. A hop sample is attributed to the stage containing the
// hop's completion instant, so the three hop profiles of one request
// can land in different stages when a stage boundary passes between
// them — per-stage hop counts are hop completions in the window, not a
// partition of end-to-end requests.
func StageHops(obs RunObservation, hops []NamedHop) []HopProfile {
	w := StageWindows(obs)
	out := make([]HopProfile, 0, len(hops))
	for _, h := range hops {
		out = append(out, HopProfile{Hop: h.Name, StageLatencies: stageLatencies(w, h.Rec)})
	}
	return out
}

// RenderHopProfiles renders a hop-per-block view: each hop's baseline
// and per-stage quantiles, skipping stages with no completions.
func RenderHopProfiles(profiles []HopProfile) string {
	var b strings.Builder
	for _, p := range profiles {
		fmt.Fprintf(&b, "  hop %-8s pre:     %s\n", p.Hop, p.Pre)
		for s := StageA; s < NumStages; s++ {
			if p.Q[s].Count == 0 && p.Q[s].Failed == 0 {
				continue
			}
			fmt.Fprintf(&b, "  hop %-8s stage %s: %s\n", p.Hop, s, p.Q[s])
		}
	}
	return b.String()
}
