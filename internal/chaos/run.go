package chaos

import (
	"encoding/json"
	"fmt"
	"time"

	"vivo/internal/experiments"
	"vivo/internal/metrics"
	"vivo/internal/obs"
	"vivo/internal/press"
	"vivo/internal/trace"
)

// recoveryTail is the window, ending when load stops, over which the
// recovery oracle averages throughput (both in the faulted run and in the
// no-fault baseline).
const recoveryTail = 15 * time.Second

// drain is how long the harness keeps simulating after load stops so
// every outstanding client timer fires: the 2 s connect timeout, the 6 s
// request timeout, and slack for in-flight transfers. After the drain a
// request with no recorded outcome is a genuine conservation violation,
// not an artifact of stopping the clock early.
const drain = 10 * time.Second

// Params fixes the scale and timing shared by every run of a campaign.
// It is part of the repro artifact, so a replay reconstructs the exact
// run geometry.
type Params struct {
	// FullScale selects the paper-sized deployment; quick scale (the
	// default) shrinks caches and working set for fast runs.
	FullScale bool
	// LoadFraction is the offered load as a fraction of the version's
	// Table-1 capacity.
	LoadFraction float64
	// Stabilize is the pre-injection steady period; faults inject in
	// [Stabilize, Stabilize+Window).
	Stabilize time.Duration
	Window    time.Duration
	// MinDur and MaxDur bound duration-fault lengths.
	MinDur time.Duration
	MaxDur time.Duration
	// Budget is the maximum fault count per schedule.
	Budget int
	// Settle is the stabilization allowance after the last possible
	// heal before the oracles read throughput and membership.
	Settle time.Duration
	// Epsilon is the recovery oracle's tolerance: post-heal throughput
	// must reach (1-Epsilon) × baseline.
	Epsilon float64
}

// DefaultParams returns quick-scale campaign parameters tuned so one run
// simulates ~3 virtual minutes.
func DefaultParams() Params {
	return Params{
		FullScale:    false,
		LoadFraction: 0.5,
		Stabilize:    30 * time.Second,
		Window:       60 * time.Second,
		MinDur:       5 * time.Second,
		MaxDur:       30 * time.Second,
		Budget:       4,
		Settle:       45 * time.Second,
		Epsilon:      0.1,
	}
}

// horizon is the load-generation end: stabilize + injection window + the
// longest possible fault + settle. Load runs to here; the kernel then
// drains timers for `drain` more.
func (p Params) horizon() time.Duration {
	return p.Stabilize + p.Window + p.MaxDur + p.Settle
}

// gen returns the schedule-generator bounds for a deployment of n nodes.
func (p Params) gen(n int) GenConfig {
	return GenConfig{
		Nodes:  n,
		Budget: p.Budget,
		From:   p.Stabilize,
		Window: p.Window,
		MinDur: p.MinDur,
		MaxDur: p.MaxDur,
	}
}

// validate rejects parameter sets the harness cannot run.
func (p Params) validate() error {
	if p.LoadFraction <= 0 || p.LoadFraction > 1 {
		return fmt.Errorf("chaos: load fraction %.2f outside (0, 1]", p.LoadFraction)
	}
	if p.Stabilize <= 0 || p.Window <= 0 || p.Settle <= 0 {
		return fmt.Errorf("chaos: stabilize, window and settle must be positive")
	}
	if p.Budget <= 0 {
		return fmt.Errorf("chaos: fault budget must be positive")
	}
	if p.MinDur < time.Second || p.MaxDur < p.MinDur {
		return fmt.Errorf("chaos: need 1s <= MinDur <= MaxDur, got %v..%v", p.MinDur, p.MaxDur)
	}
	if p.Epsilon <= 0 || p.Epsilon >= 1 {
		return fmt.Errorf("chaos: epsilon %.2f outside (0, 1)", p.Epsilon)
	}
	return nil
}

// jsonParams is the serialized form of Params (durations as strings).
type jsonParams struct {
	FullScale    bool    `json:"full_scale"`
	LoadFraction float64 `json:"load_fraction"`
	Stabilize    string  `json:"stabilize"`
	Window       string  `json:"window"`
	MinDur       string  `json:"min_dur"`
	MaxDur       string  `json:"max_dur"`
	Budget       int     `json:"budget"`
	Settle       string  `json:"settle"`
	Epsilon      float64 `json:"epsilon"`
}

// MarshalJSON implements json.Marshaler.
func (p Params) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonParams{
		FullScale:    p.FullScale,
		LoadFraction: p.LoadFraction,
		Stabilize:    p.Stabilize.String(),
		Window:       p.Window.String(),
		MinDur:       p.MinDur.String(),
		MaxDur:       p.MaxDur.String(),
		Budget:       p.Budget,
		Settle:       p.Settle.String(),
		Epsilon:      p.Epsilon,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Params) UnmarshalJSON(b []byte) error {
	var jp jsonParams
	if err := json.Unmarshal(b, &jp); err != nil {
		return err
	}
	parse := func(field, s string, dst *time.Duration) error {
		d, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("chaos: bad %s %q: %v", field, s, err)
		}
		*dst = d
		return nil
	}
	out := Params{
		FullScale:    jp.FullScale,
		LoadFraction: jp.LoadFraction,
		Budget:       jp.Budget,
		Epsilon:      jp.Epsilon,
	}
	for _, f := range []struct {
		name string
		s    string
		dst  *time.Duration
	}{
		{"stabilize", jp.Stabilize, &out.Stabilize},
		{"window", jp.Window, &out.Window},
		{"min_dur", jp.MinDur, &out.MinDur},
		{"max_dur", jp.MaxDur, &out.MaxDur},
		{"settle", jp.Settle, &out.Settle},
	} {
		if err := parse(f.name, f.s, f.dst); err != nil {
			return err
		}
	}
	*p = out
	return nil
}

// Observation is everything the oracles get to look at after one run:
// request accounting, the throughput timeline, the fold of the event
// stream, and a post-drain inventory of every node.
type Observation struct {
	Version  press.Version
	Seed     int64
	Schedule Schedule
	P        Params

	// Horizon is when load generation stopped (the drain follows it).
	Horizon time.Duration
	// Issued and Unsettled are the client-side conservation counters
	// after the drain.
	Issued    int64
	Unsettled int64
	// Served/Failed are the recorder totals; Outcomes decomposes them
	// per outcome class.
	Served, Failed int64
	Outcomes       map[metrics.Outcome]int64
	// BaselineTail is the no-fault baseline throughput over the
	// recovery-tail window; the campaign fills it in after the baseline
	// run (zero when unknown, which skips the recovery oracle).
	BaselineTail float64

	Timeline  metrics.Timeline
	Events    *EventFold
	Inventory []press.NodeView
}

// runOne executes one chaos run: warm deployment, steady load, the whole
// schedule injected, then a drain so every client timer resolves — an
// obs.Harness configuration with an EventFold always attached, so the
// event-reading oracles are judged as the events arrive. extra, when
// non-nil, additionally receives every event (e.g. a JSON trace file).
// An error means the schedule itself was invalid — no simulation ran.
func runOne(v press.Version, p Params, seed int64, sched Schedule, extra trace.Sink) (*Observation, error) {
	horizon := p.horizon()
	h := obs.Harness{
		Seed:    seed,
		Config:  experiments.Options{FullScale: p.FullScale}.Config(v),
		Rate:    p.LoadFraction * press.Table1Throughput(v),
		Faults:  sched.Faults,
		LoadFor: horizon,
		Drain:   drain,
	}
	events := &EventFold{}
	run, err := h.Run(events, extra)
	if err != nil {
		return nil, fmt.Errorf("chaos: bad schedule: %v", err)
	}

	return observe(Observation{Version: v, Seed: seed, Schedule: sched, P: p, Horizon: horizon}, run, events), nil
}

// observe completes o from a finished harness run: the drained client
// counters, the recorder totals and their per-outcome decomposition, the
// timeline, the event fold and the final inventory.
func observe(o Observation, run *obs.Run, events *EventFold) *Observation {
	o.Issued = run.Clients.Issued()
	o.Unsettled = run.Clients.Unsettled()
	o.Served, o.Failed = run.Rec.Totals()
	o.Outcomes = map[metrics.Outcome]int64{
		metrics.Served:         run.Rec.OutcomeCount(metrics.Served),
		metrics.ConnectTimeout: run.Rec.OutcomeCount(metrics.ConnectTimeout),
		metrics.RequestTimeout: run.Rec.OutcomeCount(metrics.RequestTimeout),
		metrics.Refused:        run.Rec.OutcomeCount(metrics.Refused),
	}
	o.Timeline = run.Rec.Timeline()
	o.Events = events
	o.Inventory = run.Deployment.Inventory()
	return &o
}

// tail returns the run's mean throughput over the recovery-tail window.
func (o *Observation) tail() float64 {
	return o.Timeline.MeanThroughput(o.Horizon-recoveryTail, o.Horizon)
}
