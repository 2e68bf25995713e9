package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	spec := Spec{EndToEnd: []SpecMetric{
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "allocs_m", Unit: "millions", Better: "lower", Bound: 0.05},
	}}
	// ledger holds one run per wall time given, each allocating allocs.
	ledger := func(allocs, failFrac float64, walls ...float64) *Ledger {
		lw := &LedgerWorkload{}
		for _, w := range walls {
			lw.Runs = append(lw.Runs, Detail{
				Report: Report{Correct: failFrac == 0, Metrics: map[string]Metric{
					"wall_s":   {Value: w, Unit: "s"},
					"allocs_m": {Value: allocs, Unit: "millions"},
				}},
				Extra: map[string]Metric{"fail_frac": {Value: failFrac, Unit: "ratio"}},
			})
		}
		lw.Median = medians(lw.Runs)
		return &Ledger{
			Stamp:     Stamp{Seed: 1, Geometry: "default", Seconds: 30},
			Workloads: map[string]*LedgerWorkload{"fault-tcp": lw},
		}
	}
	compare := func(a, b *Ledger) (bool, string) {
		t.Helper()
		var out bytes.Buffer
		regressed, err := Compare(&out, spec, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return regressed, out.String()
	}
	if regressed, out := compare(ledger(20, 0, 10, 10.1, 10.2), ledger(20.1, 0, 10.9, 11, 11.1)); regressed {
		t.Errorf("changes inside the bounds reported as a regression:\n%s", out)
	}
	// BENCHMARK.json allows allocs_m 5%; a ledger of one seed holds it to 1%.
	regressed, out := compare(ledger(20, 0, 10, 10.1, 10.2), ledger(20.4, 0, 9, 9.1, 9.2))
	if !regressed || !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "-9.90%") {
		t.Errorf("allocs_m +2%% against the same-seed 1%% bound not reported:\n%s", out)
	}
	if regressed, out := compare(ledger(20, 0, 10, 10.1, 10.2), ledger(19, 0.25, 9, 9.1, 9.2)); !regressed || !strings.Contains(out, "failed the output check") {
		t.Errorf("a failing run in b not reported as a regression:\n%s", out)
	}

	other := ledger(20, 0, 10)
	other.Stamp.Seed = 2
	if _, err := Compare(&bytes.Buffer{}, spec, ledger(20, 0, 10), other); err == nil {
		t.Error("ledgers of different seeds compared")
	}
}

func TestVerdict(t *testing.T) {
	noisy := []float64{10, 12, 14} // spread 4/12, wider than the bound
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"worse median inside the spread", []float64{12.5, 13.5, 14}, "unresolved"},
		{"every run worse", []float64{15, 16, 17}, "REGRESSED"},
		{"every run better", []float64{8, 9, 9.5}, "ok"},
	} {
		worse := median(c.b)/median(noisy) - 1
		if got := verdict(worse, 0.1, 1, noisy, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := verdict(0.05, 0.1, 1, []float64{10, 10.1, 10.2}, []float64{10.5}); got != "ok" {
		t.Errorf("steady metric 5%% worse against a 10%% bound: %s", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
}
