package metrics

import (
	"strings"
	"testing"
	"time"

	"vivo/internal/sim"
)

func plotFixture(t *testing.T, rate func(s int) int, seconds int) Timeline {
	t.Helper()
	k := sim.New(1)
	r := NewRecorder(k, time.Second)
	for s := 0; s < seconds; s++ {
		for i := 0; i < rate(s); i++ {
			at := time.Duration(s)*time.Second + time.Duration(i)*time.Microsecond
			k.At(at, func() { r.Record(Served) })
		}
	}
	k.After(10*time.Second, func() { r.MarkNow("fault-injected @n3") })
	k.After(20*time.Second, func() { r.MarkNow("fault-repaired") })
	k.RunAll()
	return r.Timeline()
}

func TestPlotShape(t *testing.T) {
	tl := plotFixture(t, func(s int) int {
		if s >= 10 && s < 20 {
			return 0
		}
		return 50
	}, 30)
	p := tl.Plot(6, 30)
	lines := strings.Split(strings.TrimRight(p, "\n"), "\n")
	// 6 chart rows + axis + time labels + legend.
	if len(lines) != 9 {
		t.Fatalf("plot has %d lines:\n%s", len(lines), p)
	}
	if !strings.Contains(p, "#") {
		t.Fatal("no bars drawn")
	}
	if !strings.Contains(p, "F") || !strings.Contains(p, "R") {
		t.Fatalf("fault/repair markers missing:\n%s", p)
	}
	// The outage must be visible: the top row has a hole.
	top := lines[0]
	if !strings.Contains(top, "#") || !strings.Contains(strings.TrimRight(top, " "), " ") {
		t.Fatalf("top row should show bars with an outage gap: %q", top)
	}
}

func TestPlotEmptyAndDegenerate(t *testing.T) {
	var empty Timeline
	empty.Bin = time.Second
	if s := empty.Plot(5, 20); !strings.Contains(s, "empty") {
		t.Fatalf("empty plot = %q", s)
	}
	// All-zero throughput must not divide by zero.
	tl := plotFixture(t, func(int) int { return 0 }, 5)
	if s := tl.Plot(3, 10); s == "" {
		t.Fatal("zero plot empty")
	}
}

func TestPlotWidthNotExceedingBins(t *testing.T) {
	tl := plotFixture(t, func(int) int { return 10 }, 5)
	p := tl.Plot(3, 100) // wider than the data
	for _, line := range strings.Split(p, "\n") {
		if strings.Contains(line, "|") {
			bars := line[strings.Index(line, "|")+1:]
			if len(bars) > 5 {
				t.Fatalf("row wider than bin count: %q", line)
			}
		}
	}
}
