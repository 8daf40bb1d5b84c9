package experiment_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"strings"
	"testing"

	"h2privacy/internal/experiment"
)

// updateDigests rewrites testdata/report_digests.txt from the current
// code. Only regenerate when a report is meant to change, and say why in
// the commit: the digests are the cross-commit pin that performance work
// changes no reported number.
var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/report_digests.txt")

const digestFile = "testdata/report_digests.txt"

// reportDigests renders every registered report at 1 trial per point,
// 2 workers and base seed 1, and returns "id sha256" lines in registry
// order.
func reportDigests(t *testing.T) []string {
	t.Helper()
	opts := experiment.Options{Trials: 1, BaseSeed: 1, Workers: 2, NoProgress: true}
	var lines []string
	for _, id := range experiment.IDs() {
		run, _ := experiment.Lookup(id)
		rep, err := run(opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		rep.Render(&buf)
		sum := sha256.Sum256(buf.Bytes())
		lines = append(lines, id+" "+hex.EncodeToString(sum[:]))
	}
	return lines
}

// TestReportDigestsPinned regenerates every report and compares its
// rendered bytes, by SHA-256, against the digests checked into testdata.
// Scheduler, RNG and buffer-management changes must leave every fired
// event and every drawn number as they were, so any mismatch here is a
// behaviour change, not noise.
func TestReportDigestsPinned(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("regenerates every report; a serial determinism pin, run without -race")
	}
	got := reportDigests(t)
	if *updateDigests {
		body := "# id sha256(Render) at Trials=1 Workers=2 BaseSeed=1\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(digestFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("report digest mismatch:\n got  %s\n want %s", g, w)
		}
	}
}
