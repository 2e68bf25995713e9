// Command pressbench regenerates every table and figure of the paper's
// evaluation section: Table 1, the measured stage parameters of Table 2,
// the per-fault timelines behind Figures 2-5,
// the modeled unavailability/performability of Figure 6, the pessimistic
// VIA fault-load scenarios of Figures 7-10, and the ≈4× crossover claim.
//
// The full paper-scale campaign (-full) takes several minutes of wall
// time; the default quick scale preserves all behaviours on a smaller
// working set and finishes much faster. Results from a full run are
// recorded in EXPERIMENTS.md.
//
// Usage:
//
//	pressbench [-full] [-seed 1] [-parallel N] [-latency] [-slo 1s] [-only table1,fig2,...]
//
// The campaign's 60 runs (5 versions × 11 faults + 5 baselines) are
// independent simulations and fan out across -parallel workers (default:
// GOMAXPROCS). The worker count changes wall-clock time only — a given
// seed produces bit-identical results at any setting.
//
// The "latency" section (always part of the default run; -latency makes
// every other section record latency too) prints the latency-
// performability table: per-request quantiles before/during the fault
// for every version, the tail-latency view Table 2's throughput numbers
// hide. The "slo" section prints the SLO-performability table: the
// per-stage fraction of requests answered within the -slo target
// (default 1s) folded with the Table-3 rates.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"vivo/internal/cli"
	"vivo/internal/experiments"
	"vivo/internal/press"
)

// sections are the valid -only names, in presentation order.
var sections = []string{
	"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "fig10", "latency", "slo", "crossover", "extension",
	"sweep", "scaling", "multifault",
}

func main() {
	ef := cli.NewExperimentFlags()
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(sections, ","))
	flag.Parse()

	opt := ef.Options()

	known := map[string]bool{}
	for _, s := range sections {
		known[s] = true
	}
	want := map[string]bool{}
	if *only != "" {
		var bad []string
		for _, part := range strings.Split(*only, ",") {
			name := strings.TrimSpace(part)
			if !known[name] {
				bad = append(bad, name)
				continue
			}
			want[name] = true
		}
		if len(bad) > 0 {
			sort.Strings(bad)
			fmt.Fprintf(os.Stderr, "pressbench: unknown -only section(s) %s (valid: %s)\n",
				strings.Join(bad, ", "), strings.Join(sections, ", "))
			os.Exit(2)
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	start := time.Now()
	if sel("table1") {
		section("Table 1")
		fmt.Print(experiments.RenderTable1(experiments.Table1(opt)))
	}
	timelineFigs := []struct {
		name string
		fn   func(experiments.Options) []experiments.FaultRun
		desc string
	}{
		{"fig2", experiments.Figure2, "Figure 2: transient link failure"},
		{"fig3", experiments.Figure3, "Figure 3: node crash"},
		{"fig4", experiments.Figure4, "Figure 4: memory exhaustion"},
		{"fig5", experiments.Figure5, "Figure 5: NULL pointer passed to send"},
	}
	for _, fig := range timelineFigs {
		if !sel(fig.name) {
			continue
		}
		section(fig.desc)
		for _, fr := range fig.fn(opt) {
			fmt.Println(fr.String())
			fmt.Print(fr.Timeline.Plot(8, 96))
			fmt.Println()
		}
	}

	if sel("latency") {
		section("Latency under faults (per-request, end-to-end)")
		fmt.Print(experiments.RenderLatencyTable(experiments.LatencyTable(opt)))
		for _, fr := range experiments.FigureLatency(opt) {
			fmt.Printf("\n%s under %s: %s\n", fr.Version, fr.Fault, fr.Latency.TotalQuantiles())
			fmt.Print(fr.StageLat.String())
		}
	}

	if sel("slo") {
		sloOpt := opt
		if sloOpt.SLO <= 0 {
			sloOpt.SLO = experiments.DefaultSLO
		}
		section(fmt.Sprintf("SLO performability (latency target %v)", sloOpt.SLO))
		fmt.Print(experiments.RenderSLOTable(experiments.SLOTable(sloOpt)))
	}

	needCampaign := sel("scaling") || sel("extension") // both reuse the campaign
	for _, cs := range experiments.CampaignSections {
		needCampaign = needCampaign || sel(cs.Name)
	}
	if needCampaign {
		section("Phase-1 campaign (5 versions x 11 faults)")
		c := experiments.RunCampaign(opt)
		fmt.Printf("campaign done in %v\n", time.Since(start).Round(time.Second))
		for _, cs := range experiments.CampaignSections {
			if sel(cs.Name) {
				section(cs.Title)
				fmt.Print(cs.Render(c))
			}
		}
		if sel("scaling") {
			section("Cluster-size scaling (extension study)")
			rows := experiments.ClusterScaling(c, experiments.BestVIAVersion, []int{2, 4, 6, 8}, opt)
			fmt.Print(experiments.RenderClusterScaling(rows, experiments.BestVIAVersion))
		}
	}
	if sel("extension") {
		section("Extension: ROBUST-PRESS (the layer §7 proposes)")
		fmt.Print(experiments.RenderExtension(experiments.RunExtension(opt)))
	}
	if sel("multifault") {
		section("Extension: overlapping faults vs the single-fault model assumption")
		for _, v := range []press.Version{press.TCPPress, press.VIAPress5} {
			fmt.Print(experiments.RenderMultiFault(experiments.MultiFaultStudy(v, opt)))
			fmt.Println()
		}
	}
	fmt.Printf("\ntotal wall time %v\n", time.Since(start).Round(time.Second))
}

func section(title string) {
	fmt.Printf("\n===== %s =====\n", title)
}
