package bench

import (
	"math"
	"os"
	"testing"
)

func TestFoldTop(t *testing.T) {
	top, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := foldTop(string(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim":            0.32, // container/heap folds into its only importer
		"runtime.gc":     0.18, // marking, scanning and the write barrier
		"runtime.malloc": 0.09,
		"other":          0.08, // memmove, map access, math/rand, the benchmark itself
		"cluster":        0.05,
		"press":          0.04,
		"viasim":         0.04,
		"tcpsim":         0.03,
		"substrate":      0.06, // substrate, substrate/tcp and substrate/via
		"workload":       0.04,
		"trace":          0.03,
		"latency":        0.02,
		"chaos":          0.02,
	}
	sum := 0.0
	for _, mod := range shareModules {
		got, ok := shares[mod]
		if !ok {
			t.Errorf("no share for %s", mod)
		}
		if math.Abs(got-want[mod]) > 1e-9 {
			t.Errorf("share %s = %v, want %v", mod, got, want[mod])
		}
		sum += got
	}
	if len(shares) != len(shareModules) {
		t.Errorf("%d shares, want %d", len(shares), len(shareModules))
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestFoldTopEmpty(t *testing.T) {
	if _, err := foldTop("Showing nodes accounting for 0, 0% of 0 total\n"); err == nil {
		t.Error("an empty profile folded without error")
	}
}

func TestParseSeconds(t *testing.T) {
	for in, want := range map[string]float64{
		"0": 0, "10ms": 0.01, "1.20s": 1.2, "1.50mins": 90, "250us": 250e-6, "3µs": 3e-6, "7ns": 7e-9,
	} {
		got, err := parseSeconds(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseSeconds(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseSeconds("12.00%"); err == nil {
		t.Error("parseSeconds accepted a percentage")
	}
}
