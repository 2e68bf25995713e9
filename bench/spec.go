package bench

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// metricDef names a metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics of the end-to-end run, as BENCHMARK.json
// declares them.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"allocs_m", "millions"},
	{"alloc_gb", "GB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of the per-layer run, as BENCHMARK.json
// declares them.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, mod := range shareModules {
		defs = append(defs, metricDef{"cpu_share." + mod, "ratio"})
	}
	return append(defs, []metricDef{
		{"runtime.gc_cycles", "count"},
		{"bench.trace_overhead", "ratio"},
		{"trace.events.substrate", "count"},
		{"trace.events.request", "count"},
		{"trace.events.press", "count"},
		{"trace.events.fault", "count"},
		{"sim.events_per_request.tcp", "count"},
		{"sim.events_per_request.via", "count"},
		{"sim.live_events_mean.tcp", "count"},
		{"sim.live_events_mean.via", "count"},
		{"press.cpu_us_per_request.tcp", "us"},
		{"press.cpu_us_per_request.via", "us"},
		{"press.allocs_per_request.tcp", "count"},
		{"press.allocs_per_request.via", "count"},
		{"press.bytes_per_request.tcp", "B"},
		{"press.bytes_per_request.via", "B"},
		{"sim.ns_per_event", "ns"},
		{"sim.allocs_per_event", "count"},
		{"sim.bytes_per_event", "B"},
		{"tcpsim.ns_per_msg", "ns"},
		{"tcpsim.allocs_per_msg", "count"},
		{"tcpsim.events_per_msg", "count"},
		{"viasim.ns_per_msg", "ns"},
		{"viasim.allocs_per_msg", "count"},
		{"viasim.events_per_msg", "count"},
		{"workload.ns_per_issue", "ns"},
		{"workload.allocs_per_issue", "count"},
		{"trace.emit_ns.disabled", "ns"},
		{"trace.emit_ns.recorder", "ns"},
		{"trace.emit_ns.json", "ns"},
		{"latency.observe_ns", "ns"},
		{"metrics.record_ns", "ns"},
	}...)
}()

// Spec is the part of BENCHMARK.json the command reads.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric declaration of BENCHMARK.json.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// ReadSpec parses BENCHMARK.json.
func ReadSpec(path string) (Spec, error) {
	var s Spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return s, nil
}

// pinFile is the layout of testdata/expected_seed<N>.json: the SHA-256
// of every output for one seed at the default geometry, keyed
// "<workload>/<output>".
type pinFile struct {
	Geometry string            `json:"geometry"`
	Seed     int64             `json:"seed"`
	Ops      map[string]string `json:"ops"`
}

//go:embed testdata/expected_seed*.json
var pinFS embed.FS

// pinnedSeeds are the seeds whose digests are pinned: 1 is the default
// seed, 2 is held out.
var pinnedSeeds = []int64{1, 2}

func pinName(seed int64) string { return fmt.Sprintf("expected_seed%d.json", seed) }

// loadPins returns the pinned digests for seed at geometry g, or nil
// when none are pinned.
func loadPins(g Geometry, seed int64) (map[string]string, error) {
	b, err := pinFS.ReadFile("testdata/" + pinName(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var pf pinFile
	if err := json.Unmarshal(b, &pf); err != nil {
		return nil, fmt.Errorf("bench: parse pins for seed %d: %w", seed, err)
	}
	if pf.Geometry != g.Name || pf.Seed != seed {
		return nil, nil
	}
	return pf.Ops, nil
}

// UpdatePins runs every operation of every workload once per pinned
// seed at the default geometry and writes the digests into dir.
func UpdatePins(dir string, out io.Writer) error {
	g := Default()
	for _, seed := range pinnedSeeds {
		pf := pinFile{Geometry: g.Name, Seed: seed, Ops: map[string]string{}}
		for _, w := range workloads {
			for _, kind := range w.Kinds {
				outs, err := safeRun(func() ([]output, error) { return w.run(g, seed, kind) })
				if err != nil {
					return fmt.Errorf("bench: %s/%s seed %d: %w", w.Name, kind, seed, err)
				}
				for _, o := range outs {
					pf.Ops[w.Name+"/"+o.Name] = o.Digest
					fmt.Fprintf(out, "seed %d %s/%s %.12s\n", seed, w.Name, o.Name, o.Digest)
				}
			}
		}
		if err := writeJSON(filepath.Join(dir, pinName(seed)), pf); err != nil {
			return fmt.Errorf("bench: write pins: %w", err)
		}
	}
	return nil
}
