package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// shareModules are the buckets profile self time is folded into, in
// report order: the simulator's modules, then the runtime's collector
// and allocator, then everything else.
var shareModules = []string{
	"sim", "cluster", "osmodel", "tcpsim", "viasim", "substrate", "press",
	"workload", "faults", "metrics", "latency", "trace", "obs", "chaos",
	"core", "experiments", "runtime.gc", "runtime.malloc", "other",
}

// gcPrefixes and mallocPrefixes split the runtime's own functions into
// the garbage collector (marking, scanning, sweeping, write barriers,
// assists) and the allocator; the rest of the runtime counts as other.
var gcPrefixes = []string{
	"gcWriteBarrier", "runtime.gc", "runtime.(*gc", "runtime.scan",
	"runtime.greyobject", "runtime.findObject", "runtime.markroot",
	"runtime.markBits", "runtime.(*markBits)", "runtime.sweepone",
	"runtime.bgsweep", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.typePointers",
	"runtime.(*mspan).typePointers", "runtime.spanOf", "runtime.(*mspan).base",
	"runtime.(*mspan).divideByElemSize", "runtime.(*mSpanStateBox)",
	"runtime.pageIndexOf", "runtime.arenaIndex", "runtime.addb",
	"runtime.deductAssistCredit",
}

var mallocPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.(*mcache)", "runtime.getMCache", "runtime.(*mcentral)",
	"runtime.(*mheap).alloc", "runtime.(*pageAlloc)", "runtime.nextFreeFast",
	"runtime.(*mspan).nextFreeIndex", "runtime.(*mspan).init", "runtime.heapSetType",
	"runtime.(*mspan).heapBits", "runtime.(*mspan).writeHeapBits",
	"runtime.memclrNoHeapPointers", "runtime.publicationBarrier", "runtime.convT",
	"runtime.rawstring", "runtime.rawbyteslice", "runtime.concatstring",
}

// moduleOf maps a profiled function name to its share bucket.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "vivo/internal/"); ok {
		mod, _, _ := strings.Cut(rest, ".")
		mod, _, _ = strings.Cut(mod, "/") // substrate/tcp, substrate/via
		for _, m := range shareModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	// container/heap's only importer is the kernel's event queue.
	if strings.HasPrefix(fn, "container/heap.") {
		return "sim"
	}
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return "runtime.gc"
		}
	}
	for _, p := range mallocPrefixes {
		if strings.HasPrefix(fn, p) {
			return "runtime.malloc"
		}
	}
	return "other"
}

// foldTop folds the text of `go tool pprof -top` into each bucket's share
// of profiled self time. Every bucket is present; the shares sum to 1.
func foldTop(top string) (map[string]float64, error) {
	shares := make(map[string]float64, len(shareModules))
	for _, m := range shareModules {
		shares[m] = 0
	}
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(top))
	for sc.Scan() {
		// flat flat% sum% cum cum% name, e.g.
		//   1.20s 12.00% 12.00%  2.30s 23.00%  vivo/internal/sim.(*Kernel).Step
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err := parseSeconds(f[0])
		if err != nil {
			continue // a header line
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		shares[moduleOf(name)] += flat
		total += flat
	}
	if total == 0 {
		return nil, fmt.Errorf("bench: profile has no samples")
	}
	for m := range shares {
		shares[m] /= total
	}
	return shares, nil
}

// parseSeconds reads a pprof duration such as "0", "10ms", "1.20s" or
// "1.50mins".
func parseSeconds(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err
		}
	}
	if s == "0" {
		return 0, nil
	}
	return 0, fmt.Errorf("bench: not a pprof duration: %q", s)
}

// profileShares runs `go tool pprof -top` on a CPU profile and folds it.
func profileShares(path string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-symbolize=none",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench: go tool pprof: %w: %s", err, stderr.String())
	}
	return foldTop(string(out))
}
