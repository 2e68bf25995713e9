package bench

import (
	"runtime"
	"strings"
	"testing"

	"vivo/internal/trace"
)

// smokeDigests runs every operation of every workload at the smoke
// geometry and returns the digests keyed "<workload>/<output>".
func smokeDigests(t *testing.T, seed int64) map[string]string {
	t.Helper()
	g := Smoke()
	out := map[string]string{}
	for _, w := range workloads {
		for _, kind := range w.Kinds {
			outs, err := w.run(g, seed, kind)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, kind, err)
			}
			for _, o := range outs {
				out[w.Name+"/"+o.Name] = o.Digest
			}
		}
	}
	return out
}

func TestDigestsIgnoreGOMAXPROCSAndFollowSeed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := smokeDigests(t, 1)
	runtime.GOMAXPROCS(2)
	two := smokeDigests(t, 1)
	other := smokeDigests(t, 2)
	if len(one) != 4+2+5+2 {
		t.Errorf("%d outputs, want 13: %v", len(one), sortedKeys(one))
	}
	for name, d := range one {
		if two[name] != d {
			t.Errorf("%s: digest differs between GOMAXPROCS 1 and 2", name)
		}
		if other[name] == d {
			t.Errorf("%s: seeds 1 and 2 give the same digest", name)
		}
	}
}

// TestTracedEqualsUntraced shows the per-layer pass's traced output of
// every workload simulates the same run as the untraced one.
func TestTracedEqualsUntraced(t *testing.T) {
	plain := smokeDigests(t, 1)
	for _, w := range workloads {
		var counts categoryCounter
		o, err := w.traced(Smoke(), 1, &counts)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if want := plain[w.Name+"/"+o.Name]; o.Digest != want {
			t.Errorf("%s/%s: the counting sink changed the output", w.Name, o.Name)
		}
		cats := []trace.Category{trace.Substrate, trace.Request}
		if w.Name != "saturation" {
			cats = append(cats, trace.Fault)
		}
		if w.Name == "fault-tcp" || w.Name == "fault-via" {
			cats = append(cats, trace.Press)
		}
		for _, c := range cats {
			if counts[c] == 0 {
				t.Errorf("%s: no %s events counted", w.Name, c)
			}
		}
	}
}

func TestPinsLoad(t *testing.T) {
	want := map[string]int{"fault-tcp": 4, "fault-via": 2, "saturation": 5, "chaos-guided": Default().ChaosBudget}
	for _, seed := range pinnedSeeds {
		pins, err := loadPins(Default(), seed)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for key := range pins {
			w, _, _ := strings.Cut(key, "/")
			got[w]++
		}
		for w, n := range want {
			if got[w] != n {
				t.Errorf("seed %d: %d pins for %s, want %d", seed, got[w], w, n)
			}
		}
	}
	if pins, err := loadPins(Smoke(), 1); err != nil || pins != nil {
		t.Errorf("smoke geometry found pins %v, %v", pins, err)
	}
}
