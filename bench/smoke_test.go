package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestSmoke runs every workload in both modes at the smoke geometry and
// checks that each metric BENCHMARK.json names is printed with its unit,
// so a benchmark that rots fails here first.
func TestSmoke(t *testing.T) {
	spec, err := ReadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the command runs %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
	for _, layers := range []bool{false, true} {
		want, code := spec.EndToEnd, endToEnd
		if layers {
			want, code = spec.PerLayer, perLayer
		}
		if len(want) != len(code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command measures %d", len(want), len(code))
		}
		for _, w := range workloads {
			var out bytes.Buffer
			_, err := Run(Config{Workload: w, Seed: 1, Layers: layers, Geometry: Smoke(), Work: t.TempDir(), Out: &out})
			if err != nil {
				t.Fatalf("%s layers=%v: %v", w.Name, layers, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
			}
			if len(rep) != 4 || rep["correct"] == nil || rep["attempted"] == nil || rep["failed"] == nil || rep["metrics"] == nil {
				t.Errorf("%s: result keys %v", w.Name, sortedKeys(rep))
			}
			var r Report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s layers=%v: correct=%v attempted=%d failed=%d", w.Name, layers, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s: %d metrics in the result, want %d", w.Name, len(r.Metrics), len(want))
			}
			share := 0.0
			for _, sm := range want {
				m, ok := r.Metrics[sm.Name]
				if !ok || m.Unit != sm.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", w.Name, sm.Name, m, sm.Unit)
				}
				if !strings.Contains(out.String(), fmt.Sprintf("%s %s %v %s\n", w.Name, sm.Name, m.Value, sm.Unit)) {
					t.Errorf("%s: no line for %s", w.Name, sm.Name)
				}
				if strings.HasPrefix(sm.Name, "cpu_share.") {
					share += m.Value
				}
				if !layers && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v", w.Name, sm.Name, m.Value)
				}
			}
			if layers && math.Abs(share-1) > 0.01 {
				t.Errorf("%s: cpu shares sum to %v", w.Name, share)
			}
		}
	}
}
