package experiments

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"vivo/internal/core"
	"vivo/internal/faults"
	"vivo/internal/press"
)

// tinyOptions shrinks every duration and the offered load so a full
// campaign costs seconds instead of minutes: the parallel-engine tests
// only care that results are assembled identically, not that the stage
// shapes match the paper.
func tinyOptions(seed int64) Options {
	return Options{
		Seed:          seed,
		LoadFraction:  0.15,
		Stabilize:     2 * time.Second,
		FaultDuration: 4 * time.Second,
		Observe:       5 * time.Second,
		Env:           core.DefaultEnvironment(),
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 4, 100} {
		var mu sync.Mutex
		var got []int
		ForEach(7, workers, func(i int) {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		})
		sort.Ints(got)
		if want := []int{0, 1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: visited %v, want %v", workers, got, want)
		}
	}
}

func TestForEachPropagatesPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: panic swallowed", workers)
				}
			}()
			ForEach(5, workers, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
		}()
	}
}

// TestRunFaultRepeatableInProcess re-runs one experiment in the same
// process and demands bit-identical extraction. This is the regression
// test for the map-iteration-order bug: the press server used to close
// connections and fail/re-dispatch pending requests in randomized map
// order, so a repeated run could diverge by a few requests even with the
// same seed. (VIA + switch-down exercises the teardown and reconfigure
// paths that were affected.)
func TestRunFaultRepeatableInProcess(t *testing.T) {
	opt := tinyOptions(42)
	a := RunFault(press.VIAPress3, faults.SwitchDown, opt)
	for i := 0; i < 4; i++ {
		b := RunFault(press.VIAPress3, faults.SwitchDown, opt)
		if !reflect.DeepEqual(a.Measured, b.Measured) {
			t.Fatalf("repeat %d diverged: %+v vs %+v", i, a.Measured, b.Measured)
		}
	}
}

// TestCampaignParallelMatchesSerial is the determinism contract of the
// parallel engine: every run derives its seed from (Seed, version, fault)
// alone and simulates on a private kernel, so a 1-worker and an N-worker
// campaign must be bit-identical.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	serial := tinyOptions(42)
	serial.Parallel = 1
	parallel := tinyOptions(42)
	parallel.Parallel = 4
	cs := measure(serial, press.Versions...)
	cp := measure(parallel, press.Versions...)
	if !reflect.DeepEqual(cs, cp) {
		t.Fatal("1-worker and 4-worker campaigns differ")
	}
}

// TestConcurrentCampaignsMemoizeIndependently drives two RunCampaign
// calls with different Options concurrently: both must complete (the old
// campaign-wide mutex would have serialized them for the whole
// measurement) and each must be memoized under its own key.
func TestConcurrentCampaignsMemoizeIndependently(t *testing.T) {
	optA := tinyOptions(101)
	optB := tinyOptions(202)
	var a, b *Campaign
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a = RunCampaign(optA) }()
	go func() { defer wg.Done(); b = RunCampaign(optB) }()
	wg.Wait()
	if a == nil || b == nil {
		t.Fatal("a concurrent campaign did not complete")
	}
	if a == b {
		t.Fatal("different options returned the same campaign")
	}
	if a2 := RunCampaign(optA); a2 != a {
		t.Fatal("campaign A not memoized")
	}
	if b2 := RunCampaign(optB); b2 != b {
		t.Fatal("campaign B not memoized")
	}
}

// TestRunCampaignMemoKeyIgnoresParallel asserts the cache returns the
// same campaign for any worker count: Parallel affects wall-clock time,
// never contents, so it must not split the cache.
func TestRunCampaignMemoKeyIgnoresParallel(t *testing.T) {
	opt := tinyOptions(101) // shares the key with the concurrency test's A
	opt.Parallel = 1
	first := RunCampaign(opt)
	opt.Parallel = 8
	if second := RunCampaign(opt); second != first {
		t.Fatal("changing Parallel recomputed the campaign")
	}
	if first.Opt.Parallel != 0 {
		t.Fatalf("memoized campaign stores Parallel=%d, want normalized 0", first.Opt.Parallel)
	}
}

// TestSameOptionsSingleflight runs many concurrent RunCampaign calls with
// equal options and checks they share one computation.
func TestSameOptionsSingleflight(t *testing.T) {
	opt := tinyOptions(202) // shares the key with the concurrency test's B
	got := make([]*Campaign, 6)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = RunCampaign(opt)
		}(i)
	}
	wg.Wait()
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("caller %d got a different campaign", i)
		}
	}
}
