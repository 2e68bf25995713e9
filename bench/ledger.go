package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Ledger is one BENCH_<yyyymmdd>_<sha>.json file: every run of every
// workload, with the per-workload medians, stamped with what produced it.
type Ledger struct {
	Stamp     Stamp                      `json:"stamp"`
	Workloads map[string]*LedgerWorkload `json:"workloads"`
}

// Stamp records the inputs and build of a ledger.
type Stamp struct {
	Date       string  `json:"date"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Geometry   string  `json:"geometry"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitHead    string  `json:"git_head"`
	GitDirty   bool    `json:"git_dirty"`
}

// LedgerWorkload holds one workload's runs and their medians.
type LedgerWorkload struct {
	Runs   []Detail          `json:"runs"`
	Layers []Detail          `json:"layers,omitempty"`
	Median map[string]Metric `json:"median"`
}

// LedgerConfig drives RunLedger.
type LedgerConfig struct {
	Seed    int64
	Seconds float64
	// Runs is how many end-to-end runs each workload gets; the workloads
	// take turns, so slow drift on the machine spreads over all of them.
	Runs int
	// Layers adds one per-layer run per workload.
	Layers bool
	Smoke  bool
	Work   string
	Out    io.Writer
}

// RunLedger runs every workload in its own child process (this
// executable with -workload), one at a time, and collects the results.
func RunLedger(cfg LedgerConfig) (*Ledger, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	g := Default()
	if cfg.Smoke {
		g = Smoke()
	}
	led := &Ledger{Stamp: stamp(cfg.Seed, cfg.Seconds, g), Workloads: map[string]*LedgerWorkload{}}
	for _, w := range workloads {
		led.Workloads[w.Name] = &LedgerWorkload{}
	}
	child := func(w Workload, layers bool) (Detail, error) {
		detail := filepath.Join(cfg.Work, "detail-"+w.Name+".json")
		defer os.Remove(detail)
		trace := "0"
		if layers {
			trace = "1"
		}
		args := []string{
			"-workload", w.Name, "-seed", strconv.FormatInt(cfg.Seed, 10),
			"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
			"-trace", trace, "-work", cfg.Work, "-detail", detail,
		}
		if cfg.Smoke {
			args = append(args, "-smoke")
		}
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return Detail{}, fmt.Errorf("bench: %s: %w\n%s", w.Name, err, out.String())
		}
		var d Detail
		b, err := os.ReadFile(detail)
		if err == nil {
			err = json.Unmarshal(b, &d)
		}
		if err != nil {
			return Detail{}, fmt.Errorf("bench: %s: read result: %w", w.Name, err)
		}
		printMetricLines(cfg.Out, out.String())
		return d, nil
	}
	for r := 0; r < cfg.Runs; r++ {
		for _, w := range workloads {
			d, err := child(w, false)
			if err != nil {
				return nil, err
			}
			lw := led.Workloads[w.Name]
			lw.Runs = append(lw.Runs, d)
		}
	}
	if cfg.Layers {
		for _, w := range workloads {
			d, err := child(w, true)
			if err != nil {
				return nil, err
			}
			lw := led.Workloads[w.Name]
			lw.Layers = append(lw.Layers, d)
		}
	}
	for _, lw := range led.Workloads {
		lw.Median = medians(append(lw.Runs, lw.Layers...))
	}
	return led, nil
}

// printMetricLines copies a child's "<workload> <metric> <value> <unit>"
// lines, dropping its operation lines and result line.
func printMetricLines(out io.Writer, s string) {
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "op ") || strings.HasPrefix(line, "{") {
			continue
		}
		fmt.Fprintln(out, line)
	}
}

// medians takes each metric's median over runs, extras included.
func medians(runs []Detail) map[string]Metric {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, d := range runs {
		for _, set := range []map[string]Metric{d.Metrics, d.Extra} {
			for name, m := range set {
				vals[name] = append(vals[name], m.Value)
				units[name] = m.Unit
			}
		}
	}
	out := map[string]Metric{}
	for name, v := range vals {
		out[name] = Metric{Value: median(v), Unit: units[name]}
	}
	return out
}

func stamp(seed int64, seconds float64, g Geometry) Stamp {
	s := Stamp{
		Date:       time.Now().UTC().Format("2006-01-02T15:04:05Z"),
		Seed:       seed,
		Seconds:    seconds,
		Geometry:   g.Name,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: 1,
		GoVersion:  runtime.Version(),
		GitHead:    "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.GitHead = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		s.GitDirty = err != nil || len(bytes.TrimSpace(status)) > 0
	}
	return s
}

// FileName is the ledger's name under the results directory.
func (l *Ledger) FileName() string {
	day := strings.ReplaceAll(l.Stamp.Date[:10], "-", "")
	sha := l.Stamp.GitHead
	if len(sha) > 12 {
		sha = sha[:12]
	}
	return fmt.Sprintf("BENCH_%s_%s.json", day, sha)
}

// Write stores the ledger as indented JSON.
func (l *Ledger) Write(path string) error { return writeJSON(path, l) }

// Write stores the run record as indented JSON.
func (d Detail) Write(path string) error { return writeJSON(path, d) }

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadLedger loads a ledger file.
func ReadLedger(path string) (*Ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &l, nil
}

// FailedRuns counts the runs in the ledger whose output check failed.
func (l *Ledger) FailedRuns() int {
	n := 0
	for _, lw := range l.Workloads {
		n += lw.failedRuns()
	}
	return n
}

func (lw *LedgerWorkload) failedRuns() int {
	n := 0
	for _, d := range append(lw.Runs, lw.Layers...) {
		if !d.Correct || d.Failed > 0 {
			n++
		}
	}
	return n
}

// correctness are the ledger's metrics outside BENCHMARK.json whose any
// increase is a regression: the share of failed outputs and the saturation
// rows' distance from the paper.
var correctness = []SpecMetric{
	{Name: "fail_frac", Unit: "ratio", Better: "lower"},
	{Name: "paper_err_pct", Unit: "%", Better: "lower"},
}

// sameSeedBounds tighten BENCHMARK.json's bounds for ledgers, which always
// compare runs of one seed. Those bounds also cover the spread between
// seeds, about 2% for allocation on the fault workloads, while runs of one
// seed repeat their allocation to about 1e-5.
var sameSeedBounds = map[string]float64{"allocs_m": 0.01, "alloc_gb": 0.01}

// Compare prints, for every workload both ledgers hold, each metric's
// median change from a to b against its bound, and reports whether b
// regressed: an end-to-end metric got worse by more than its bound,
// fail_frac or paper_err_pct increased at all, or a run of b failed its
// output check. Where the spread of a's runs (interquartile range over
// median) exceeds the bound, the change is unresolved unless every run of
// b reads better, or every run worse, than every run of a. Per-layer
// metrics have no bound and are printed for information. Ledgers of
// different seeds, geometries or run lengths measure different work and
// are refused.
func Compare(out io.Writer, spec Spec, a, b *Ledger) (regressed bool, err error) {
	sa, sb := a.Stamp, b.Stamp
	if sa.Seed != sb.Seed || sa.Geometry != sb.Geometry || sa.Seconds != sb.Seconds {
		return false, fmt.Errorf("bench: ledgers differ in seed, geometry or seconds: %d/%s/%gs against %d/%s/%gs",
			sa.Seed, sa.Geometry, sa.Seconds, sb.Seed, sb.Geometry, sb.Seconds)
	}
	fmt.Fprintf(out, "a: %s %s seed=%d\nb: %s %s seed=%d\n",
		sa.GitHead, sa.Date, sa.Seed, sb.GitHead, sb.Date, sb.Seed)
	fmt.Fprintf(out, "%-13s %-30s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		for i, set := range [][]SpecMetric{spec.EndToEnd, correctness, spec.PerLayer} {
			for _, sm := range set {
				ma, okA := wa.Median[sm.Name]
				mb, okB := wb.Median[sm.Name]
				if !okA || !okB {
					continue
				}
				sign := 1.0
				if sm.Better == "higher" {
					sign = -1
				}
				worse := 0.0
				if ma.Value != 0 {
					worse = sign * (mb.Value - ma.Value) / ma.Value
				} else if sign*mb.Value > 0 {
					worse = math.Inf(1)
				}
				bound, v := "-", ""
				if i < 2 {
					limit := sm.Bound
					if tight, ok := sameSeedBounds[sm.Name]; ok {
						limit = math.Min(limit, tight)
					}
					bound = fmt.Sprintf("%.1f%%", 100*limit)
					v = verdict(worse, limit, sign, runValues(wa.Runs, sm.Name), runValues(wb.Runs, sm.Name))
					if v == "REGRESSED" {
						regressed = true
					}
				}
				fmt.Fprintf(out, "%-13s %-30s %14.6g %14.6g %+8.2f%% %7s  %s\n",
					w.Name, sm.Name, ma.Value, mb.Value, 100*worse, bound, v)
			}
		}
		if failed := wb.failedRuns(); failed > 0 {
			fmt.Fprintf(out, "%-13s %d run(s) of b failed the output check  REGRESSED\n", w.Name, failed)
			regressed = true
		}
	}
	return regressed, nil
}

// verdict judges one bounded metric whose median got worse by the share
// worse, given the runs of both ledgers; sign is 1 where lower is better
// and -1 where higher is.
func verdict(worse, bound, sign float64, a, b []float64) string {
	if len(a) > 1 && len(b) > 0 {
		q1, q3 := quartiles(a)
		if m := median(a); m != 0 && (q3-q1)/math.Abs(m) > bound {
			// Scaled by sign, lower is better.
			bestA, worstA := extremes(a, sign)
			bestB, worstB := extremes(b, sign)
			switch {
			case worstB < bestA:
				return "ok"
			case bestB > worstA && worse > bound:
				return "REGRESSED"
			}
			return "unresolved"
		}
	}
	if worse > bound {
		return "REGRESSED"
	}
	return "ok"
}

// extremes returns the smallest and largest of sign*v over vals.
func extremes(vals []float64, sign float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo, hi = math.Min(lo, sign*v), math.Max(hi, sign*v)
	}
	return lo, hi
}

// runValues collects a metric from every run that reports it.
func runValues(runs []Detail, name string) []float64 {
	var vals []float64
	for _, d := range runs {
		if m, ok := d.Metrics[name]; ok {
			vals = append(vals, m.Value)
		} else if m, ok := d.Extra[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// quartiles returns the first and third quartiles of vals as Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method).
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
