package core

import (
	"testing"
	"time"
)

// The observation used across the window-alignment tests: a detected
// fault with a reconfiguration transient and a recovery transient.
func detectedObs() RunObservation {
	tl := makeTimeline(200, func(s int) int {
		switch {
		case s < 30:
			return 1000
		case s < 45:
			return 0
		case s < 50:
			return 400 + (s-45)*60
		case s < 120:
			return 750
		case s < 130:
			return 850
		default:
			return 1000
		}
	})
	return RunObservation{
		Timeline:  tl,
		Injected:  30 * time.Second,
		Repaired:  120 * time.Second,
		Detected:  45 * time.Second,
		HasDetect: true,
		Tn:        1000,
		End:       200 * time.Second,
	}
}

func TestStageWindowsMatchesExtractBounds(t *testing.T) {
	obs := detectedObs()
	b := extractBounds(obs)
	w := StageWindows(obs)
	if !w.HasB {
		t.Fatal("expected a reconfiguration transient")
	}
	wantSpans := [NumStages]Span{
		StageA: {obs.Injected, b.detect},
		StageB: {b.detect, b.stable1},
		StageC: {b.stable1, obs.Repaired},
		StageD: {obs.Repaired, b.stable2},
		StageE: {b.stable2, obs.End},
	}
	for s := StageA; s <= StageE; s++ {
		if !w.Valid[s] {
			t.Errorf("stage %s not valid", s)
		}
		if w.Stage[s] != wantSpans[s] {
			t.Errorf("stage %s span = %+v, want %+v", s, w.Stage[s], wantSpans[s])
		}
	}
	if w.Valid[StageF] || w.Valid[StageG] {
		t.Error("modeled stages F/G must not be observable windows")
	}
	if w.Pre != (Span{10 * time.Second, 30 * time.Second}) {
		t.Errorf("pre window = %+v, want the 20s baseline", w.Pre)
	}
}

// Adjacent stage windows must tile [Injected, End) with no gaps or
// overlaps: every settled request belongs to exactly one stage.
func TestStageWindowsTile(t *testing.T) {
	obs := detectedObs()
	w := StageWindows(obs)
	at := obs.Injected
	for s := StageA; s <= StageE; s++ {
		if w.Stage[s].From != at {
			t.Fatalf("stage %s starts at %v, want %v (gap or overlap)", s, w.Stage[s].From, at)
		}
		at = w.Stage[s].To
	}
	if at != obs.End {
		t.Fatalf("stages end at %v, want %v", at, obs.End)
	}
}

func TestStageWindowsInstantaneous(t *testing.T) {
	tl := makeTimeline(100, func(s int) int {
		switch {
		case s < 30:
			return 1000
		case s < 36:
			return 750
		default:
			return 1000
		}
	})
	obs := RunObservation{
		Timeline:      tl,
		Injected:      30 * time.Second,
		Repaired:      36 * time.Second,
		Detected:      30 * time.Second,
		HasDetect:     true,
		Instantaneous: true,
		Tn:            1000,
		End:           100 * time.Second,
	}
	w := StageWindows(obs)
	if !w.Instantaneous {
		t.Fatal("Instantaneous not mirrored")
	}
	for s := StageA; s < NumStages; s++ {
		want := s == StageC || s == StageE
		if w.Valid[s] != want {
			t.Errorf("stage %s valid=%v, want %v", s, w.Valid[s], want)
		}
	}
	c, e := w.Stage[StageC], w.Stage[StageE]
	if c.From != obs.Injected || c.To != e.From || e.To != obs.End {
		t.Errorf("C=%+v E=%+v must tile [Injected, End)", c, e)
	}
}

func TestSpanDuration(t *testing.T) {
	if d := (Span{2 * time.Second, 5 * time.Second}).Duration(); d != 3*time.Second {
		t.Fatalf("Duration = %v", d)
	}
	inverted := Span{5 * time.Second, 2 * time.Second}
	if !inverted.Empty() || inverted.Duration() != 0 {
		t.Fatal("inverted span must be empty with zero duration")
	}
}
