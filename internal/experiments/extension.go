package experiments

import (
	"fmt"
	"strings"

	"vivo/internal/core"
	"vivo/internal/press"
)

// This file evaluates the repository's extension: ROBUST-PRESS, an
// implementation of the communication layer §7 of the paper proposes
// (message-based, single-copy, pre-allocated, fabric-matched fault model,
// synchronous descriptor validation) combined with the §6.2 re-merging
// membership protocol. The experiment answers the question the paper
// leaves open: how much performability does the proposed design actually
// buy?

// ExtensionRow is one version's results under one of the extension
// scenarios.
type ExtensionRow struct {
	Version        press.Version
	Tn             float64
	Availability   float64
	Performability float64
}

// ExtensionResult compares all six versions under the same fault load and
// under the §6.3 combined pessimistic load for user-level substrates.
type ExtensionResult struct {
	SameLoad    []ExtensionRow
	Pessimistic []ExtensionRow
}

// RunExtension measures ROBUST-PRESS with the standard campaign protocol
// and evaluates it alongside the paper's five versions.
//
// Under the pessimistic load the user-level versions (VIA and ROBUST) all
// receive the extra application bugs and system crashes — ROBUST runs on
// the same immature hardware — but packet drops are only fatal to the
// plain VIA versions: the robust layer's bounded retransmission absorbs
// transient drops exactly like TCP (that is the "match the fabric's fault
// model" recommendation).
func RunExtension(opt Options) ExtensionResult {
	c := RunCampaign(opt).with(measure(opt, press.RobustPress))
	var res ExtensionResult

	// Scenario 1: identical fault load, application faults once per day.
	same := core.DefaultFaultLoad(core.Day)
	for _, v := range press.AllVersions {
		m := c.Model(v, same)
		r := m.Evaluate()
		res.SameLoad = append(res.SameLoad, ExtensionRow{
			Version: v, Tn: m.Tn, Availability: r.AA, Performability: m.Performability(),
		})
	}

	// Scenario 2: the Figure-10 pessimistic load for every user-level
	// substrate.
	for _, v := range press.AllVersions {
		m := c.Model(v, baseLoad())
		if v.UsesVIA() {
			m = c.combinedModel(v)
			m.Extra = append(m.Extra, c.systemCrash(v, core.Month))
			if !v.Robust() {
				// Transient packet drops reset plain VIA channels;
				// the robust layer retransmits through them.
				m.Extra = append(m.Extra, c.packetDrop(v, core.Month))
			}
		}
		r := m.Evaluate()
		res.Pessimistic = append(res.Pessimistic, ExtensionRow{
			Version: v, Tn: m.Tn, Availability: r.AA, Performability: m.Performability(),
		})
	}
	return res
}

// RenderExtension formats the comparison.
func RenderExtension(res ExtensionResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Extension: the robust communication layer the paper proposes (§7) + re-merging membership (§6.2)")
	section := func(title string, rows []ExtensionRow) {
		fmt.Fprintf(&b, "\n %s\n", title)
		fmt.Fprintf(&b, " %-14s %8s %13s %14s\n", "version", "Tn", "availability", "performability")
		for _, r := range rows {
			fmt.Fprintf(&b, " %-14s %8.0f %13.5f %14.0f\n", r.Version, r.Tn, r.Availability, r.Performability)
		}
	}
	section("same fault load (app faults 1/day):", res.SameLoad)
	section("pessimistic user-level-substrate load (fig 10 + drops spared for the robust layer):", res.Pessimistic)
	return b.String()
}
