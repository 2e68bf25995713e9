package experiments

import (
	"strings"
	"testing"
	"time"

	"vivo/internal/core"
	"vivo/internal/press"
)

func TestAppRateSweepMonotone(t *testing.T) {
	c := fakeCampaign()
	for _, v := range press.Versions {
		pts := AppRateSweep(c, v)
		if len(pts) < 5 {
			t.Fatalf("sweep too short: %d", len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].AppMTTF <= pts[i-1].AppMTTF {
				t.Fatal("sweep not ordered by MTTF")
			}
			if pts[i].Unavailability > pts[i-1].Unavailability {
				t.Fatalf("%v: unavailability rose as faults got rarer (%v -> %v)",
					v, pts[i-1].Unavailability, pts[i].Unavailability)
			}
			if pts[i].Performability < pts[i-1].Performability {
				t.Fatalf("%v: performability fell as faults got rarer", v)
			}
		}
	}
}

func TestAppRateSweepBracketsFigure6Points(t *testing.T) {
	c := fakeCampaign()
	rows := Figure6(c)
	pts := AppRateSweep(c, press.VIAPress5)
	var atDay, atMonth float64
	for _, p := range pts {
		if p.AppMTTF == core.Day {
			atDay = p.Unavailability
		}
		if p.AppMTTF == core.Month {
			atMonth = p.Unavailability
		}
	}
	for _, r := range rows {
		if r.Version != press.VIAPress5 {
			continue
		}
		if r.AppMTTF == core.Day && r.Unavailability != atDay {
			t.Fatalf("sweep day point %v != figure 6 %v", atDay, r.Unavailability)
		}
		if r.AppMTTF == core.Month && r.Unavailability != atMonth {
			t.Fatalf("sweep month point %v != figure 6 %v", atMonth, r.Unavailability)
		}
	}
}

func TestRescaleFraction(t *testing.T) {
	// A one-node-out regime on 4 nodes (75%) maps to 7/8 on 8 nodes.
	if got := rescaleFraction(0.75, 8); got != 0.875 {
		t.Fatalf("rescale(0.75, 8) = %v", got)
	}
	// Total outages and unaffected regimes are size-independent.
	if rescaleFraction(0, 8) != 0 || rescaleFraction(1, 8) != 1 {
		t.Fatal("boundary fractions must not change")
	}
	// Shrinking the cluster makes a one-node outage worse, floored at 0.
	if got := rescaleFraction(0.75, 2); got != 0.5 {
		t.Fatalf("rescale(0.75, 2) = %v", got)
	}
	if got := rescaleFraction(0.9, 1); got < 0 {
		t.Fatalf("rescale floor broken: %v", got)
	}
}

// The scaling study runs at the sizes pressbench prints, and each size
// adds at least half its extra nodes' share of capacity.
func TestClusterScalingThroughputGrows(t *testing.T) {
	c := fakeCampaign()
	opt := testOpt()
	sizes := []int{2, 4, 6, 8}
	rows := ClusterScaling(c, press.VIAPress5, sizes, opt)
	if len(rows) != len(sizes) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Nodes != sizes[i] {
			t.Fatalf("row %d is %d nodes, want %d", i, r.Nodes, sizes[i])
		}
		if r.Availability <= 0.9 || r.Availability >= 1 {
			t.Fatalf("availability out of band at %d nodes: %v", r.Nodes, r.Availability)
		}
		if i == 0 {
			continue
		}
		prev := rows[i-1]
		growth := 1 + 0.5*float64(r.Nodes-prev.Nodes)/float64(prev.Nodes)
		if r.Throughput < prev.Throughput*growth {
			t.Fatalf("throughput did not scale from %d to %d nodes: %.0f -> %.0f (want >= %.2fx)",
				prev.Nodes, r.Nodes, prev.Throughput, r.Throughput, growth)
		}
	}
}

func TestRenderSweeps(t *testing.T) {
	c := fakeCampaign()
	if s := RenderAppRateSweep(c); !strings.Contains(s, "VIA-PRESS-5") {
		t.Fatal("sweep render missing versions")
	}
	rows := []ScaleRow{{Nodes: 4, Throughput: 7000, Availability: 0.99}}
	if s := RenderClusterScaling(rows, press.VIAPress5); !strings.Contains(s, "7000") {
		t.Fatal("scaling render missing data")
	}
}

func TestMultiFaultStudy(t *testing.T) {
	opt := testOpt() // -short trims the stabilize window
	opt.LoadFraction = 0.3
	opt.FaultDuration = 30 * time.Second
	opt.Observe = 60 * time.Second
	rows := MultiFaultStudy(press.VIAPress5, opt)
	if len(rows) != len(DefaultMultiFaultScenarios()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeasuredA <= 0.3 || r.MeasuredA > 1 {
			t.Fatalf("%s measured availability %v implausible", r.Scenario, r.MeasuredA)
		}
		if r.Superpose <= 0.3 || r.Superpose > 1 {
			t.Fatalf("%s superposed availability %v implausible", r.Scenario, r.Superpose)
		}
		// Superposition error should be bounded: overlapping faults on a
		// 4-node cluster interact, but not catastrophically.
		if r.Error < -0.5 || r.Error > 0.5 {
			t.Fatalf("%s error %v out of band", r.Scenario, r.Error)
		}
	}
	if s := RenderMultiFault(rows); !strings.Contains(s, "superposed") {
		t.Fatal("render missing header")
	}
}
