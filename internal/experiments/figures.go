package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vivo/internal/core"
	"vivo/internal/faults"
	"vivo/internal/press"
	"vivo/internal/sim"
)

// ---- Table 1 ----

// Table1Row compares a version's measured near-peak throughput with the
// paper's.
type Table1Row struct {
	Version  press.Version
	Paper    float64
	Measured float64
}

// Table1 measures the near-peak throughput of all five versions, one
// worker per version (bounded by opt.Parallel).
func Table1(opt Options) []Table1Row {
	rows := make([]Table1Row, len(press.Versions))
	ForEach(len(press.Versions), opt.workers(), func(i int) {
		v := press.Versions[i]
		k := sim.New(opt.Seed*10 + int64(v))
		got := press.MeasureThroughput(k, opt.Config(v),
			1.3*press.Table1Throughput(v), 10*time.Second, 30*time.Second)
		rows[i] = Table1Row{Version: v, Paper: press.Table1Throughput(v), Measured: got}
	})
	return rows
}

// RenderTable1 formats the rows like the paper's Table 1.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: near-peak throughput (4 nodes)\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %7s\n", "Version", "paper", "measured", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10.0f %10.0f %7.3f\n", r.Version, r.Paper, r.Measured, r.Measured/r.Paper)
	}
	return b.String()
}

// ---- Figures 2-5: per-fault throughput timelines ----

// Figure2 reproduces the transient-link-failure timelines (the paper shows
// TCP-PRESS, TCP-PRESS-HB and VIA-PRESS-5; the other VIA versions behave
// identically to VIA-PRESS-5).
func Figure2(opt Options) []FaultRun {
	return timelines(opt, faults.LinkDown, press.TCPPress, press.TCPPressHB, press.VIAPress5)
}

// Figure3 reproduces the node-crash timelines.
func Figure3(opt Options) []FaultRun {
	return timelines(opt, faults.NodeCrash, press.TCPPress, press.TCPPressHB, press.VIAPress5)
}

// Figure4 reproduces the memory-exhaustion timelines: kernel memory for
// the TCP versions and pinnable memory for VIA-PRESS-5 (the other VIA
// versions show no degradation, as in the paper).
func Figure4(opt Options) []FaultRun {
	out := timelines(opt, faults.KernelMemory, press.TCPPress, press.TCPPressHB)
	out = append(out, RunFault(press.VIAPress5, faults.MemoryPinning, opt))
	return out
}

// Figure5 reproduces the NULL-pointer send-fault timelines (TCP-PRESS,
// VIA-PRESS-0 with its one-sided error, VIA-PRESS-3 with errors at both
// ends).
func Figure5(opt Options) []FaultRun {
	return timelines(opt, faults.BadPtrNull, press.TCPPress, press.VIAPress0, press.VIAPress3)
}

func timelines(opt Options, ft faults.Type, versions ...press.Version) []FaultRun {
	out := make([]FaultRun, len(versions))
	ForEach(len(versions), opt.workers(), func(i int) {
		out[i] = RunFault(versions[i], ft, opt)
	})
	return out
}

// RenderTimeline formats one fault run like the paper's per-fault figures.
func RenderTimeline(fr FaultRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s under %s (offered %.0f req/s)\n", fr.Version, fr.Fault, fr.OfferedLoad)
	fmt.Fprint(&b, fr.Timeline.String())
	return b.String()
}

// ---- Figure 6: unavailability and performability under the same load ----

// Fig6Row is one version's modeled results at one application fault rate.
type Fig6Row struct {
	Version        press.Version
	AppMTTF        time.Duration
	Tn             float64
	Unavailability float64
	Performability float64
	// Contribution breaks unavailability down by fault class.
	Contribution map[string]float64
}

// Figure6 evaluates every version at application fault rates of once per
// day and once per month, as in the paper's Figure 6.
func Figure6(c *Campaign) []Fig6Row {
	var rows []Fig6Row
	for _, v := range press.Versions {
		for _, appMTTF := range []time.Duration{core.Day, core.Month} {
			m := c.Model(v, core.DefaultFaultLoad(appMTTF))
			res := m.Evaluate()
			rows = append(rows, Fig6Row{
				Version:        v,
				AppMTTF:        appMTTF,
				Tn:             m.Tn,
				Unavailability: res.Unavailability,
				Performability: core.Performability(m.Tn, res.AA, core.IdealAvailability),
				Contribution:   res.Contribution,
			})
		}
	}
	return rows
}

// RenderFigure6 formats the figure as paired bars plus the contribution
// breakdown.
func RenderFigure6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: modeled unavailability and performability\n")
	fmt.Fprintf(&b, "%-14s %9s %14s %9s %14s\n", "Version", "app MTTF", "unavailability", "avail", "performability")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9s %14.5f %9.4f %14.0f\n",
			r.Version, fmtMTTF(r.AppMTTF), r.Unavailability, 1-r.Unavailability, r.Performability)
	}
	fmt.Fprintf(&b, "\nUnavailability contributions (app fault rate 1/day):\n")
	for _, r := range rows {
		if r.AppMTTF != core.Day {
			continue
		}
		fmt.Fprintf(&b, "  %-14s", r.Version)
		names := make([]string, 0, len(r.Contribution))
		for n := range r.Contribution {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if r.Contribution[n] > 1e-6 {
				fmt.Fprintf(&b, " %s=%.5f", n, r.Contribution[n])
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func fmtMTTF(d time.Duration) string {
	switch {
	case d >= 89*core.Day:
		return fmt.Sprintf("1/%dmo", int(d/core.Month))
	case d >= core.Month:
		return "1/month"
	case d >= 13*core.Day:
		return fmt.Sprintf("1/%.0fwk", d.Hours()/24/7)
	case d >= core.Week:
		return "1/week"
	default:
		return "1/day"
	}
}

// ---- Figures 7-10: pessimistic fault loads for the VIA versions ----

// ScenarioRow is one version's performability under one pessimistic
// scenario setting.
type ScenarioRow struct {
	Version        press.Version
	Setting        string
	Performability float64
}

// baseLoad is the fault load the sensitivity scenarios start from: Table 3
// with an application fault rate of one per month for every version (the
// scenarios then add VIA-only faults on top).
func baseLoad() core.FaultLoad { return core.DefaultFaultLoad(core.Month) }

// Figure7 models transient packet drops: no effect on TCP (retry absorbs
// them); on VIA each drop resets the channel, behaving like a process
// crash. Rates: one per day, week, month.
func Figure7(c *Campaign) []ScenarioRow {
	var rows []ScenarioRow
	for _, mttf := range []time.Duration{core.Day, core.Week, core.Month} {
		setting := "drops 1/" + fmtMTTF(mttf)
		for _, v := range press.Versions {
			m := c.Model(v, baseLoad())
			if v.UsesVIA() {
				rates := core.Rates{MTTF: mttf, MTTR: 3 * time.Minute}
				m.Extra = append(m.Extra, core.ExtraFault{
					Name:   "packet-drop",
					Rates:  rates,
					Stages: c.stageFor(v, core.ProcCrash, rates),
					Count:  4,
				})
			}
			rows = append(rows, ScenarioRow{v, setting, m.Performability()})
		}
	}
	return rows
}

// Figure8 models extra software bugs from VIA's harder programming model:
// TCP stays at one application fault per month; the VIA versions' overall
// application fault rate scales from one per day to one per month.
func Figure8(c *Campaign) []ScenarioRow {
	var rows []ScenarioRow
	for _, mttf := range []time.Duration{core.Day, core.Week, core.Month} {
		setting := "VIA app faults 1/" + fmtMTTF(mttf)
		for _, v := range press.Versions {
			load := baseLoad()
			if v.UsesVIA() {
				load = load.WithAppMTTF(mttf)
			}
			m := c.Model(v, load)
			rows = append(rows, ScenarioRow{v, setting, m.Performability()})
		}
	}
	return rows
}

// Figure9 models system crashes from immature VIA hardware/firmware,
// behaving like switch crashes, at one per week, month, and three months.
func Figure9(c *Campaign) []ScenarioRow {
	var rows []ScenarioRow
	for _, mttf := range []time.Duration{core.Week, core.Month, 3 * core.Month} {
		setting := "system faults 1/" + fmtMTTF(mttf)
		for _, v := range press.Versions {
			m := c.Model(v, baseLoad())
			if v.UsesVIA() {
				rates := core.Rates{MTTF: mttf, MTTR: time.Hour}
				m.Extra = append(m.Extra, core.ExtraFault{
					Name:   "system-crash",
					Rates:  rates,
					Stages: c.stageFor(v, core.SwitchDown, rates),
					Count:  1,
				})
			}
			rows = append(rows, ScenarioRow{v, setting, m.Performability()})
		}
	}
	return rows
}

// Figure10 combines the pessimistic VIA loads: packet drops once per
// month, added application faults once per two weeks, and system failures
// once per month.
func Figure10(c *Campaign) []ScenarioRow {
	var rows []ScenarioRow
	for _, v := range press.Versions {
		load := baseLoad()
		m := c.Model(v, load)
		if v.UsesVIA() {
			// Added application rate: base 1/month plus 1/2 weeks.
			addRate := 1.0/core.Month.Hours() + 1.0/(2*core.Week).Hours()
			appMTTF := time.Duration(float64(time.Hour) / addRate)
			m = c.Model(v, load.WithAppMTTF(appMTTF))
			dropRates := core.Rates{MTTF: core.Month, MTTR: 3 * time.Minute}
			m.Extra = append(m.Extra, core.ExtraFault{
				Name:   "packet-drop",
				Rates:  dropRates,
				Stages: c.stageFor(v, core.ProcCrash, dropRates),
				Count:  4,
			})
			sysRates := core.Rates{MTTF: core.Month, MTTR: time.Hour}
			m.Extra = append(m.Extra, core.ExtraFault{
				Name:   "system-crash",
				Rates:  sysRates,
				Stages: c.stageFor(v, core.SwitchDown, sysRates),
				Count:  1,
			})
		}
		rows = append(rows, ScenarioRow{v, "combined pessimistic", m.Performability()})
	}
	return rows
}

// RenderScenario formats scenario rows grouped by setting.
func RenderScenario(title string, rows []ScenarioRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	last := ""
	for _, r := range rows {
		if r.Setting != last {
			fmt.Fprintf(&b, " %s:\n", r.Setting)
			last = r.Setting
		}
		fmt.Fprintf(&b, "   %-14s P=%8.0f\n", r.Version, r.Performability)
	}
	return b.String()
}

// ---- Crossover (§6.3 / §9) ----

// CrossoverRow reports the factor by which a VIA version's switch, link
// and application fault rates must grow before its performability drops to
// a TCP version's.
type CrossoverRow struct {
	TCP, VIA press.Version
	Factor   float64
	Found    bool
}

// crossoverClasses are the classes §9 names: switch, link and application
// errors.
var crossoverClasses = []core.FaultClass{
	core.SwitchDown, core.LinkDown,
	core.ProcCrash, core.ProcHang, core.BadNull, core.BadOffPtr, core.BadOffSize,
}

// Crossover computes the equal-performability factor for every TCP/VIA
// pair under the Table 3 load with application faults once per day.
func Crossover(c *Campaign) []CrossoverRow {
	load := core.DefaultFaultLoad(core.Day)
	var rows []CrossoverRow
	for _, tcp := range []press.Version{press.TCPPress, press.TCPPressHB} {
		ref := c.Model(tcp, load)
		for _, via := range []press.Version{press.VIAPress0, press.VIAPress3, press.VIAPress5} {
			pen := c.Model(via, load)
			k, ok := core.CrossoverScale(ref, pen, crossoverClasses, 1000)
			rows = append(rows, CrossoverRow{TCP: tcp, VIA: via, Factor: k, Found: ok})
		}
	}
	return rows
}

// RenderCrossover formats the crossover matrix.
func RenderCrossover(rows []CrossoverRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Crossover: factor on VIA switch/link/application fault rates for equal performability")
	for _, r := range rows {
		mark := ""
		if !r.Found {
			mark = " (no crossover within bound)"
		}
		fmt.Fprintf(&b, "  %-14s vs %-14s  k = %.1f%s\n", r.VIA, r.TCP, r.Factor, mark)
	}
	return b.String()
}

// CampaignSection is one pressbench section computed from the phase-1
// campaign alone: pure arithmetic on a Campaign, no simulation.
type CampaignSection struct {
	Name   string // the pressbench -only name
	Title  string // the section heading
	Render func(*Campaign) string
}

// CampaignSections lists those sections in presentation order.
// TestGoldenSeed1 renders each from the quick seed-1 campaign and
// compares it with its section of results/quick_campaign.txt.
var CampaignSections = []CampaignSection{
	{"table2", "Table 2", RenderTable2},
	{"fig6", "Figure 6", func(c *Campaign) string { return RenderFigure6(Figure6(c)) }},
	{"fig7", "Figure 7", func(c *Campaign) string {
		return RenderScenario("Performability with VIA packet drops (reset the channel; TCP unaffected)", Figure7(c))
	}},
	{"fig8", "Figure 8", func(c *Campaign) string {
		return RenderScenario("Performability with extra VIA software bugs (TCP at 1/month)", Figure8(c))
	}},
	{"fig9", "Figure 9", func(c *Campaign) string {
		return RenderScenario("Performability with VIA system faults (switch-crash-like)", Figure9(c))
	}},
	{"fig10", "Figure 10", func(c *Campaign) string {
		return RenderScenario("Performability under the combined pessimistic VIA load", Figure10(c))
	}},
	{"crossover", "Crossover (the paper's ~4x claim)", func(c *Campaign) string { return RenderCrossover(Crossover(c)) }},
	{"sweep", "Application-fault-rate sweep (beyond the paper's two points)", RenderAppRateSweep},
}
