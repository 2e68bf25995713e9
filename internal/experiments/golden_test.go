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
// The same campaign also renders every CampaignSections entry (Table 2,
// Figures 6-10, the crossover matrix, the sweep), which costs
// milliseconds, and the ROBUST-PRESS extension, which adds that version's
// 11 fault runs to the memoized campaign, and compares each with its
// section of the checked-in results/quick_campaign.txt, so the archive
// cannot drift from the code.
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
	// The campaign plus the extension's fault runs cost 16.8-19.2
	// Table-1 passes (three runs, standalone on a shared 2-core VM; the
	// campaign alone 13.5-15.4). 22 leaves room for the package's tests
	// that run after this one.
	if project := 22 * time.Since(start); hasDeadline && time.Until(dl) < project {
		t.Skipf("campaign projected at ~%v from Table 1, %v left; run via make golden",
			project.Round(time.Second), time.Until(dl).Round(time.Second))
	}
	c := RunCampaign(opt)
	checkArchive(t, c, RenderExtension(RunExtension(opt)))
	got := table1 + "\n" + RenderTable2(c)

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
	if line, g, w, differ := firstDiff(got, string(want)); differ {
		t.Fatalf("behaviour diverged from golden output at line %d:\n  got:  %q\n  want: %q\n(rerun with -update only if the change is intentional)", line, g, w)
	}
}

// firstDiff returns the first line (1-based) at which got and want
// differ, and that line of each.
func firstDiff(got, want string) (line int, g, w string, differ bool) {
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w = "", ""
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			return i + 1, g, w, true
		}
	}
	return 0, "", "", false
}

// archivePath is the quick-scale results archive, regenerated with
// archiveCmd from the repository root.
const (
	archivePath = "../../results/quick_campaign.txt"
	archiveCmd  = "go run ./cmd/pressbench -only table2,fig6,fig7,fig8,fig9,fig10,crossover,sweep,extension > results/quick_campaign.txt"
)

// extensionTitle is the archive section pressbench prints RenderExtension
// under.
const extensionTitle = "Extension: ROBUST-PRESS (the layer §7 proposes)"

// checkArchive compares each campaign section rendered from c, and the
// rendered extension, with the same section of the archive, byte for
// byte.
func checkArchive(t *testing.T, c *Campaign, extension string) {
	t.Helper()
	text, err := os.ReadFile(archivePath)
	if err != nil {
		t.Fatalf("read results archive: %v", err)
	}
	archived := sections(string(text))
	check := func(title, got string) {
		want, ok := archived[title]
		if !ok {
			t.Errorf("%s has no %q section; regenerate it with\n\t%s", archivePath, title, archiveCmd)
			return
		}
		if line, g, w, differ := firstDiff(got, want); differ {
			t.Errorf("%s section %q differs from the code's rendering at its line %d:\n  got:  %q\n  want: %q\nregenerate it with\n\t%s",
				archivePath, title, line, g, w, archiveCmd)
		}
	}
	for _, cs := range CampaignSections {
		check(cs.Title, cs.Render(c))
	}
	check(extensionTitle, extension)
}

// sections splits pressbench output into section bodies keyed by title.
// pressbench opens each section with "\n===== <title> =====\n", so a body
// runs to the blank line that opens the next one; the last runs to the
// blank line before the closing "total wall time" line.
func sections(out string) map[string]string {
	m := map[string]string{}
	for _, chunk := range strings.Split(out, "\n===== ")[1:] {
		title, body, ok := strings.Cut(chunk, " =====\n")
		if ok {
			body, _, _ = strings.Cut(body, "\ntotal wall time ")
			m[title] = body
		}
	}
	return m
}
