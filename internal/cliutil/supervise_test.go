package cliutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"h2privacy/internal/core"
	"h2privacy/internal/experiment"
)

func TestParseChaosSpec(t *testing.T) {
	if hook, err := ParseChaosSpec(""); hook != nil || err != nil {
		t.Fatalf("empty spec: hook non-nil=%v err=%v, want nil/nil", hook != nil, err)
	}
	hook, err := ParseChaosSpec("panic:3, hang:11")
	if err != nil {
		t.Fatal(err)
	}
	for flat, want := range map[int]core.ChaosMode{
		0: core.ChaosNone, 3: core.ChaosPanic, 11: core.ChaosHang, 12: core.ChaosNone,
	} {
		if got := hook(flat); got != want {
			t.Fatalf("hook(%d) = %v, want %v", flat, got, want)
		}
	}
	for _, bad := range []string{"panic", "hang:x", "bogus:1", "panic:-1"} {
		if _, err := ParseChaosSpec(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

func TestSuperviseFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var h Harness
	h.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if h.MaxRetries != 1 || h.StepBudget != DefaultStepBudget ||
		h.Chaos != "" || h.Strict || h.QuarantineOut != "" {
		t.Fatalf("defaults = %+v", h)
	}
	if err := fs.Parse([]string{"-max-retries", "2", "-chaos", "hang:0", "-strict",
		"-step-budget", "9000", "-quarantine-out", "q.json"}); err != nil {
		t.Fatal(err)
	}
	if h.MaxRetries != 2 || h.Chaos != "hang:0" || !h.Strict ||
		h.StepBudget != 9000 || h.QuarantineOut != "q.json" {
		t.Fatalf("parsed = %+v", h)
	}
	if err := fs.Parse([]string{"-chaos", "bogus:1"}); err != nil {
		t.Fatal(err)
	}
	if err := h.Arm(&experiment.Options{}); err == nil {
		t.Fatal("a bad -chaos spec armed")
	}
}

// TestSuperviseApplyDegradedRun drives supervision end to end: Arm threads the
// flags into a real sweep, an injected panic quarantines one trial, and
// Finish prints the degraded summary with its repro line, writes the
// quarantine artifact and enforces -strict.
func TestSuperviseApplyDegradedRun(t *testing.T) {
	qpath := filepath.Join(t.TempDir(), "quarantine.json")
	run := func(strict bool) (int, string) {
		var log strings.Builder
		var h Harness
		args := []string{"-max-retries", "0", "-step-budget", "50000", "-chaos", "panic:0", "-quarantine-out", qpath}
		if strict {
			args = append(args, "-strict")
		}
		opts := armed(t, &h, &log, args...)
		opts.BaseSeed, opts.Workers = 11, 1
		if opts.Quarantine == nil || opts.ChaosTrial == nil || opts.StepBudget != 50_000 || opts.MaxRetries != 0 {
			t.Fatalf("Arm left opts unarmed: %+v", opts)
		}
		opts.Quarantine.SetRepro(func(f experiment.TrialFailure) string { return "replay-me" })
		results, err := opts.Sweep(2, func(tr int) core.TrialConfig {
			return core.TrialConfig{Seed: opts.BaseSeed + int64(tr)}
		})
		if err != nil {
			t.Fatalf("degraded sweep errored: %v", err)
		}
		if !results[0].Quarantined || results[1].Quarantined {
			t.Fatalf("results = %v / %v, want trial 0 quarantined only", results[0], results[1])
		}
		return h.Finish(false, nil), log.String()
	}
	code, out := run(false)
	if code != 0 {
		t.Fatalf("degraded completion exited %d without -strict", code)
	}
	for _, want := range []string{"DEGRADED", "trial 0 (seed 11) [panic]", "repro: replay-me"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
	}
	raw, err := os.ReadFile(qpath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"version": 1`, `"kind": "panic"`, "replay-me"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("quarantine file lacks %q:\n%s", want, raw)
		}
	}
	if code, _ := run(true); code != 1 {
		t.Fatalf("-strict tolerated a quarantined trial (exit %d)", code)
	}
	var h Harness
	armed(t, &h, io.Discard, "-strict")
	if code := h.Finish(false, nil); code != 0 {
		t.Fatalf("-strict failed a clean sweep (exit %d)", code)
	}
}

// TestSuperviseReportWritesEmptyArtifact: -quarantine-out is written even
// with zero failures, so CI can assert on the file unconditionally.
func TestSuperviseReportWritesEmptyArtifact(t *testing.T) {
	qpath := filepath.Join(t.TempDir(), "quarantine.json")
	var h Harness
	armed(t, &h, io.Discard, "-quarantine-out", qpath)
	if code := h.Finish(false, nil); code != 0 {
		t.Fatalf("Finish = %d", code)
	}
	raw, err := os.ReadFile(qpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"failures": []`) {
		t.Fatalf("empty artifact malformed:\n%s", raw)
	}
}
