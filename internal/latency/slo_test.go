package latency

import (
	"testing"
	"time"
)

func TestCountUnder(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{
		100 * time.Microsecond,
		time.Millisecond,
		10 * time.Millisecond,
		time.Second,
		5 * time.Second,
	} {
		h.Observe(d)
	}
	cases := []struct {
		slo  time.Duration
		want int64
	}{
		{0, 0},
		{50 * time.Microsecond, 0},
		{100 * time.Microsecond, 1},
		{time.Millisecond, 2},
		{100 * time.Millisecond, 3},
		{time.Second, 4},
		{time.Hour, 5}, // beyond maxValue: clamps, everything counts
	}
	for _, c := range cases {
		if got := h.CountUnder(c.slo); got != c.want {
			t.Errorf("CountUnder(%v) = %d, want %d", c.slo, got, c.want)
		}
	}
	if h.CountUnder(-time.Second) != 0 {
		t.Error("negative threshold must count nothing")
	}
}

func TestCountUnderIsMonotonic(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * 7 * time.Millisecond)
	}
	prev := int64(-1)
	for slo := time.Millisecond; slo < 10*time.Second; slo *= 2 {
		n := h.CountUnder(slo)
		if n < prev {
			t.Fatalf("CountUnder(%v) = %d < previous %d", slo, n, prev)
		}
		prev = n
	}
}

func TestSLOCountFraction(t *testing.T) {
	if f := (SLOCount{}).Fraction(); f != 1 {
		t.Fatalf("empty window fraction = %v, want 1", f)
	}
	c := SLOCount{Under: 3, Served: 4, Failed: 1}
	if c.Total() != 5 {
		t.Fatalf("Total = %d", c.Total())
	}
	if f := c.Fraction(); f != 0.6 {
		t.Fatalf("Fraction = %v, want 0.6 (failures are violations)", f)
	}
}
