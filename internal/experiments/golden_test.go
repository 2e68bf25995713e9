package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata golden files from the current implementation")

// TestGoldenSeed1 pins the complete observable output of the simulation
// stack for seed 1 at quick scale: Table 1 (five saturation measurements)
// plus the full phase-1 campaign matrix (5 versions × 11 faults — the
// measurements behind Table 2). The comparison is byte-for-byte, so any
// change anywhere in the stack — kernel, substrates, server, experiment
// drivers — that shifts a single event lands here as a diff. Refactors
// must keep this green without -update; behavioural changes regenerate
// the file with
//
//	go test ./internal/experiments -run TestGoldenSeed1 -update
//
// and justify the diff in review.
//
// The full matrix takes one to five minutes of wall time on a 2-core box,
// depending on what else the box runs, and far more on a race-instrumented
// build, so the test sizes itself against the binary's deadline and skips
// when it may not finish. It needs 5 minutes left, so it runs under go
// test's default 10-minute -timeout (the tier-1 `go test ./...` path) and
// `make golden`, and skips under -short or a shorter -timeout. It also
// times Table 1 and skips if the campaign, projected from that time, would
// overrun the deadline: a skip leaves the package's other tests standing,
// a timeout fails them all.
func TestGoldenSeed1(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale campaign: minutes of wall time")
	}
	const need = 5 * time.Minute
	dl, hasDeadline := t.Deadline()
	if hasDeadline && time.Until(dl) < need {
		t.Skipf("needs a -timeout of ~%v (have %v); run via make golden", need, time.Until(dl).Round(time.Minute))
	}
	opt := Quick()
	start := time.Now()
	table1 := RenderTable1(Table1(opt))
	// The campaign costs about 12 Table-1 passes; 15 leaves room for the
	// package's tests that run after this one.
	if project := 15 * time.Since(start); hasDeadline && time.Until(dl) < project {
		t.Skipf("campaign projected at ~%v from Table 1, %v left; run via make golden",
			project.Round(time.Second), time.Until(dl).Round(time.Second))
	}
	got := table1 + "\n" + RenderTable2(RunCampaign(opt))

	path := filepath.Join("testdata", "golden_seed1.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("behaviour diverged from golden output at line %d:\n  got:  %q\n  want: %q\n(rerun with -update only if the change is intentional)", i+1, g, w)
		}
	}
	t.Fatal("golden mismatch (line endings?)")
}
