package vivo_test

// Architecture-boundary test for the substrate seam. The press server
// must speak to the network only through the internal/substrate SPI:
// tcpsim and viasim are reachable solely via the adapter packages
// internal/substrate/tcp and internal/substrate/via. This test walks the
// real import graph (go list), so a stray import anywhere in the press
// package fails CI rather than waiting for review to notice.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const (
	pkgPress       = "vivo/internal/press"
	pkgSubstrate   = "vivo/internal/substrate"
	pkgTCPSim      = "vivo/internal/tcpsim"
	pkgVIASim      = "vivo/internal/viasim"
	pkgTCPAdapt    = "vivo/internal/substrate/tcp"
	pkgVIAAdapt    = "vivo/internal/substrate/via"
	pkgObs         = "vivo/internal/obs"
	pkgExperiments = "vivo/internal/experiments"
	pkgChaos       = "vivo/internal/chaos"
	pkgLatency     = "vivo/internal/latency"
	pkgMetrics     = "vivo/internal/metrics"
	pkgSim         = "vivo/internal/sim"
)

// imports returns the package's direct imports, including those of its
// test files — a test-only import would pierce the boundary just as well.
func imports(t *testing.T, pkg string) []string {
	t.Helper()
	out, err := exec.Command("go", "list", "-json", pkg).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", pkg, err)
	}
	var info struct {
		Imports      []string
		TestImports  []string
		XTestImports []string
	}
	if err := json.Unmarshal(out, &info); err != nil {
		t.Fatalf("decode go list output: %v", err)
	}
	all := append(info.Imports, info.TestImports...)
	return append(all, info.XTestImports...)
}

func TestPressDoesNotImportSubstrateImplementations(t *testing.T) {
	deps := imports(t, pkgPress)
	for _, banned := range []string{pkgTCPSim, pkgVIASim} {
		if slices.Contains(deps, banned) {
			t.Errorf("%s imports %s directly; it must go through %s",
				pkgPress, banned, pkgSubstrate)
		}
	}
	if !slices.Contains(deps, pkgSubstrate) {
		t.Errorf("%s does not import %s — the seam has moved; update this test's model of the architecture",
			pkgPress, pkgSubstrate)
	}
}

func TestSubstrateSPIIsImplementationFree(t *testing.T) {
	deps := imports(t, pkgSubstrate)
	for _, banned := range []string{pkgTCPSim, pkgVIASim} {
		if slices.Contains(deps, banned) {
			t.Errorf("%s imports %s; the SPI must stay implementation-free so adapters plug in from outside",
				pkgSubstrate, banned)
		}
	}
}

// The adapters are where the simulators are allowed — and required — to
// appear: if an adapter stops importing its simulator, the seam has been
// bypassed somewhere else.
func TestAdaptersOwnTheirSimulators(t *testing.T) {
	if deps := imports(t, pkgTCPAdapt); !slices.Contains(deps, pkgTCPSim) {
		t.Errorf("%s no longer imports %s", pkgTCPAdapt, pkgTCPSim)
	}
	if deps := imports(t, pkgVIAAdapt); !slices.Contains(deps, pkgVIASim) {
		t.Errorf("%s no longer imports %s", pkgVIAAdapt, pkgVIASim)
	}
}

// goFiles returns the package's non-test Go source paths.
func goFiles(t *testing.T, pkg string) []string {
	t.Helper()
	out, err := exec.Command("go", "list", "-json", pkg).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", pkg, err)
	}
	var info struct {
		Dir     string
		GoFiles []string
	}
	if err := json.Unmarshal(out, &info); err != nil {
		t.Fatalf("decode go list output: %v", err)
	}
	paths := make([]string, len(info.GoFiles))
	for i, f := range info.GoFiles {
		paths[i] = filepath.Join(info.Dir, f)
	}
	return paths
}

// Architecture-boundary test for the observation seam. Only the
// observation pipeline (internal/obs) may assemble instrumentation onto
// a running cluster; the layers above it — experiments and chaos — are
// thin configurations of obs.Harness and must neither reach the
// substrate implementations nor construct recorders/tracers themselves.
func TestRunLayersGoThroughObservationPipeline(t *testing.T) {
	for _, pkg := range []string{pkgExperiments, pkgChaos} {
		deps := imports(t, pkg)
		for _, banned := range []string{pkgTCPSim, pkgVIASim} {
			if slices.Contains(deps, banned) {
				t.Errorf("%s imports %s; run layers must stay substrate-agnostic",
					pkg, banned)
			}
		}
		if !slices.Contains(deps, pkgObs) {
			t.Errorf("%s does not import %s — the observation seam has moved; update this test's model of the architecture",
				pkg, pkgObs)
		}
	}
}

// Non-test sources of the run layers must not assemble instrumentation
// by hand: recorder and tracer construction belongs to obs.Harness and
// its probes, so every run is observed the same way. Nor may they keep a
// copy of a run's event stream: oracles fold events as they arrive.
// (Test files may still construct recorders to probe components in
// isolation.)
func TestRunLayersDoNotAssembleInstrumentation(t *testing.T) {
	banned := []string{"metrics.NewRecorder(", "SetTracer(", ".TrackLatency(", "trace.NewRecorder("}
	for _, pkg := range []string{pkgExperiments, pkgChaos} {
		for _, path := range goFiles(t, pkg) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read %s: %v", path, err)
			}
			for _, call := range banned {
				if strings.Contains(string(src), call) {
					t.Errorf("%s calls %s directly; attach an obs probe instead",
						path, call)
				}
			}
		}
	}
}

// There is one per-second recorder, metrics.Recorder, and it bins
// latency too. internal/latency is the kernel-free library it bins into
// (histograms, quantiles, SLO counts, timeline rendering): importing
// neither the kernel nor the recorder keeps a second clock-bound
// recorder from growing back there.
func TestLatencyIsKernelFree(t *testing.T) {
	deps := imports(t, pkgLatency)
	for _, banned := range []string{pkgSim, pkgMetrics} {
		if slices.Contains(deps, banned) {
			t.Errorf("%s imports %s; per-second binning belongs to metrics.Recorder", pkgLatency, banned)
		}
	}
}

// The chaos package has one search loop: random search is RunGuided's
// one-round case, not a second engine. A second fan-out call site would
// mean a second campaign loop with its own setup, shrink policy and
// report type.
func TestChaosHasOneSearchLoop(t *testing.T) {
	const call = "experiments.ForEach("
	n := 0
	for _, path := range goFiles(t, pkgChaos) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		n += strings.Count(string(src), call)
	}
	if n != 1 {
		t.Errorf("%s non-test sources contain %d %s call sites, want exactly 1", pkgChaos, n, call)
	}
}

// A deployment's node count is Config.Nodes, and press.NewDeployment
// alone turns it into a fabric. Any other non-test cluster.New call
// could build hardware that disagrees with the deployment it serves.
func TestOnlyTheDeploymentBuildsTheFabric(t *testing.T) {
	const call = "cluster.New("
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	sites := 0
	for dec.More() {
		var info struct {
			ImportPath string
			Dir        string
			GoFiles    []string
		}
		if err := dec.Decode(&info); err != nil {
			t.Fatalf("decode go list output: %v", err)
		}
		for _, f := range info.GoFiles {
			src, err := os.ReadFile(filepath.Join(info.Dir, f))
			if err != nil {
				t.Fatalf("read %s: %v", f, err)
			}
			n := strings.Count(string(src), call)
			if n > 0 && info.ImportPath != pkgPress {
				t.Errorf("%s/%s calls %s; build a press.Deployment instead", info.ImportPath, f, call)
			}
			sites += n
		}
	}
	if sites == 0 {
		t.Errorf("no non-test %s call left — the fabric seam has moved; update this test's model of the architecture", call)
	}
}
