package chaos

import (
	"os"
	"testing"
	"time"

	"vivo/internal/faults"
	"vivo/internal/press"
)

// sharpenedPairs enumerates every (version, fault) pair the quick-scale
// gate accepts beyond the conservative table — the exact claim the
// calibration matrix validates.
func sharpenedPairs() []struct {
	v  press.Version
	ft faults.Type
} {
	var out []struct {
		v  press.Version
		ft faults.Type
	}
	p := DefaultParams()
	for _, v := range press.Versions {
		for _, ft := range faults.AllTypes {
			if !Recoverable(v, ft) && p.Recoverable(v, ft) {
				out = append(out, struct {
					v  press.Version
					ft faults.Type
				}{v, ft})
			}
		}
	}
	return out
}

// TestQuickRecoverableGate pins the gate plumbing without running any
// simulation: the sharpened pairs open only at quick scale with at least
// the default settle allowance, and only for schedules with at most one
// state-losing fault.
func TestQuickRecoverableGate(t *testing.T) {
	p := DefaultParams()

	// Sharpened beyond the conservative table…
	if Recoverable(press.TCPPress, faults.AppCrash) {
		t.Fatal("conservative table unexpectedly accepts app-crash")
	}
	if !p.Recoverable(press.TCPPress, faults.AppCrash) {
		t.Error("quick-scale gate must accept app-crash at DefaultParams")
	}
	if !p.Recoverable(press.VIAPress0, faults.AppHang) {
		t.Error("quick-scale gate must accept VIA app-hang")
	}
	// …but never for the pairs the paper documents as splintering.
	if p.Recoverable(press.TCPPressHB, faults.AppHang) {
		t.Error("app-hang on TCP-PRESS-HB must stay excluded (§5.2 splinter)")
	}

	// The sharpening switches off outside the calibrated geometry.
	short := p
	short.Settle = 30 * time.Second // chaos-smoke geometry
	if short.Recoverable(press.TCPPress, faults.AppCrash) {
		t.Error("tightened settle window must keep the conservative table")
	}
	full := p
	full.FullScale = true
	if full.Recoverable(press.TCPPress, faults.AppCrash) {
		t.Error("full scale must keep the conservative table")
	}

	// Schedule gate: one sharpened fault is in, overlapping refills out.
	crash := faults.Spec{Type: faults.AppCrash, Target: 1, At: 30 * time.Second}
	link := faults.Spec{Type: faults.LinkDown, Target: 2, At: 40 * time.Second, Dur: 10 * time.Second}
	if !p.RecoverableSchedule(press.TCPPress, Schedule{Faults: []faults.Spec{crash}}) {
		t.Error("single sharpened fault must pass the schedule gate")
	}
	if !p.RecoverableSchedule(press.TCPPress, Schedule{Faults: []faults.Spec{crash, link}}) {
		t.Error("sharpened fault + conservative-recoverable fault must pass")
	}
	two := Schedule{Faults: []faults.Spec{crash, {Type: faults.NodeCrash, Target: 2, At: 50 * time.Second, Dur: 10 * time.Second}}}
	if p.RecoverableSchedule(press.TCPPress, two) {
		t.Error("two overlapping cold-cache refills were never calibrated; must stay conservative")
	}
	if !p.RecoverableSchedule(press.TCPPress, Schedule{}) {
		t.Error("empty schedule must be recoverable")
	}
}

// TestQuickRecoverableValidation replays one sharpened pair end-to-end —
// a VIA-PRESS-5 app-hang at DefaultParams — and checks the recovery and
// membership oracles now judge it (Pass, not Skip). This keeps the
// sharpened gate honest in CI at the cost of two quick-scale runs.
func TestQuickRecoverableValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping two full chaos runs in -short mode")
	}
	p := DefaultParams()
	v := press.VIAPress5

	base, err := runOne(v, p, 1, Schedule{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{Faults: []faults.Spec{{Type: faults.AppHang, Target: 3, At: p.Stabilize, Dur: 15 * time.Second}}}
	o, err := runOne(v, p, 1, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.BaselineTail = base.tail()

	for _, orc := range []Oracle{recovery{}, membership{}} {
		verd := orc.Check(o)
		if verd.Status == Skip {
			t.Errorf("%s skipped a sharpened pair: %s", verd.Oracle, verd.Detail)
		}
		if verd.Status == Fail {
			t.Errorf("%s failed on calibrated pair %s/%s: %s", verd.Oracle, v, faults.AppHang, verd.Detail)
		}
	}
}

// TestQuickRecoverableCalibration is the full calibration matrix behind
// quickRecoverable: every sharpened pair must actually recover at
// DefaultParams, and the documented counter-example (app-hang on
// TCP-PRESS-HB) must actually splinter. ~35 quick-scale runs; set
// CHAOS_CALIBRATE=1 to run it (it is how the table in oracle.go was
// derived and must be re-run whenever quickRecoverable changes).
func TestQuickRecoverableCalibration(t *testing.T) {
	if os.Getenv("CHAOS_CALIBRATE") == "" {
		t.Skip("set CHAOS_CALIBRATE=1 to run the calibration matrix (several minutes)")
	}
	p := DefaultParams()

	baselines := map[press.Version]float64{}
	for _, v := range press.Versions {
		base, err := runOne(v, p, 1, Schedule{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		baselines[v] = base.tail()
	}

	for _, pair := range sharpenedPairs() {
		ok, detail := calibrateRun(t, pair.v, pair.ft, baselines[pair.v])
		if !ok {
			t.Errorf("sharpened pair %s/%s did not recover: %s", pair.v, pair.ft, detail)
		} else {
			t.Logf("%s/%-15s recovered", pair.v, pair.ft)
		}
	}

	// The exclusion the sharpening deliberately keeps: TCP-PRESS-HB's
	// resumed hung process splinters from the survivors.
	if ok, _ := calibrateRun(t, press.TCPPressHB, faults.AppHang, baselines[press.TCPPressHB]); ok {
		t.Error("app-hang on TCP-PRESS-HB recovered — the exclusion comment in quickRecoverable is stale")
	}
}

// calibrateRun is one cell of the matrix: single fault, DefaultParams,
// both post-heal invariants.
func calibrateRun(t *testing.T, v press.Version, ft faults.Type, baselineTail float64) (bool, string) {
	t.Helper()
	p := DefaultParams()
	dur := 15 * time.Second
	if ft.Instantaneous() {
		dur = 0
	}
	sched := Schedule{Faults: []faults.Spec{{Type: ft, Target: 3, At: p.Stabilize, Dur: dur}}}
	o, err := runOne(v, p, 1, sched, nil)
	if err != nil {
		t.Fatalf("%s/%s: %v", v, ft, err)
	}
	o.BaselineTail = baselineTail
	tail, need := o.tail(), (1-p.Epsilon)*baselineTail
	if tail < need {
		return false, "post-heal throughput below baseline tolerance"
	}
	return inventoryConverged(o)
}
