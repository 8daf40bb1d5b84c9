package cliutil

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"h2privacy/internal/experiment"
	"h2privacy/internal/perf"
	"h2privacy/internal/trace"
)

// armed registers a harness on a fresh FlagSet, parses args and arms it,
// with diagnostics and receipts going to log.
func armed(t *testing.T, h *Harness, log io.Writer, args ...string) *experiment.Options {
	t.Helper()
	h.Tool, h.Log = "testtool", log
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	h.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	opts := &experiment.Options{SuperviseLog: io.Discard}
	if err := h.Arm(opts); err != nil {
		t.Fatal(err)
	}
	return opts
}

func TestTraceFlagsLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var log strings.Builder
	var h Harness
	opts := armed(t, &h, &log, "-trace", path, "-trace-format", "summary")
	if opts.Trace == nil {
		t.Fatal("no tracer after -trace")
	}
	opts.Trace.Emit(trace.LayerH2, "frame", trace.Num("len", 9))
	if code := h.Finish(false, nil); code != 0 {
		t.Fatalf("Finish = %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "events retained") {
		t.Fatalf("summary export wrong: %q", data)
	}
	if !strings.Contains(log.String(), "testtool: wrote 1 trace events (summary)") {
		t.Fatalf("receipt wrong: %q", log.String())
	}
}

func TestTraceFlagsDisarmed(t *testing.T) {
	var h Harness
	if opts := armed(t, &h, io.Discard); opts.Trace != nil {
		t.Fatal("tracer built without -trace")
	}
	// ForceTrace builds a tracer even without -trace; the export stays a
	// no-op.
	h = Harness{ForceTrace: true}
	opts := armed(t, &h, io.Discard)
	if opts.Trace == nil {
		t.Fatal("ForceTrace built no tracer")
	}
	if code := h.Finish(false, nil); code != 0 {
		t.Fatalf("Finish = %d", code)
	}
}

// TestTraceFlagsBadFormat: an unknown -trace-format fails at Arm, before
// any run, for the simulated and the wall-clock tracer alike.
func TestTraceFlagsBadFormat(t *testing.T) {
	for _, server := range []bool{false, true} {
		h := Harness{Server: server, TracePath: "x.json", TraceFormat: "nope"}
		if err := h.Arm(&experiment.Options{}); err == nil {
			t.Fatalf("Server=%t: bad format accepted", server)
		}
	}
}

func TestWallTracer(t *testing.T) {
	h := Harness{Server: true}
	opts := armed(t, &h, io.Discard, "-trace", filepath.Join(t.TempDir(), "t.json"))
	if opts.Trace == nil {
		t.Fatal("no wall-clock tracer")
	}
	opts.Trace.Emit(trace.LayerH2, "x")
	if opts.Trace.Len() != 1 {
		t.Fatal("wall tracer dropped the event")
	}
	if opts.Quarantine != nil || opts.StepBudget != 0 {
		t.Fatal("server harness armed sweep supervision")
	}
}

func TestDebugFlagsServe(t *testing.T) {
	var log strings.Builder
	var h Harness
	opts := armed(t, &h, &log, "-debug-addr", "127.0.0.1:0")
	if opts.Metrics == nil || opts.Trace == nil || opts.Features == nil {
		t.Fatal("-debug-addr did not arm the registry, tracer and flow collector")
	}
	opts.Metrics.Counter("x_total", "").Inc()
	receipt := log.String()
	if !strings.Contains(receipt, "testtool: debug endpoints on http://127.0.0.1:") {
		t.Fatalf("receipt wrong: %q", receipt)
	}
	addr := strings.TrimPrefix(receipt[strings.Index(receipt, "http://"):], "http://")
	addr = addr[:strings.Index(addr, "/")]
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "x_total 1") {
		t.Fatalf("/metrics = %d %q", resp.StatusCode, body)
	}
	if code := h.Finish(false, nil); code != 0 {
		t.Fatalf("Finish = %d", code)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("debug server still serving after Finish")
	}
}

func TestDebugFlagsDisarmed(t *testing.T) {
	var h Harness
	opts := armed(t, &h, io.Discard)
	if h.debug != nil || opts.Metrics != nil || opts.Features != nil {
		t.Fatalf("debug server, registry or flow collector armed without -debug-addr: %+v", opts)
	}
}

func TestPerfFlagsDisarmed(t *testing.T) {
	var log strings.Builder
	var h Harness
	opts := armed(t, &h, &log)
	if opts.Perf != nil || opts.Check != nil {
		t.Fatalf("perf collector or check recorder armed with no flags: %+v", opts)
	}
	// The whole lifecycle must be a silent no-op when disarmed.
	if code := h.Finish(false, nil); code != 0 || log.Len() != 0 {
		t.Fatalf("disarmed Finish = %d, logged %q", code, log.String())
	}
}

func TestPerfFlagsLifecycle(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "heap.pprof")
	out := filepath.Join(dir, "perf.json")
	var log strings.Builder
	var h Harness
	opts := armed(t, &h, &log, "-cpuprofile", cpu, "-memprofile", mem, "-perf-out", out)
	if opts.Perf == nil {
		t.Fatal("no collector despite armed flags")
	}
	// A tiny workload so the collector has something to report.
	w := opts.Perf.Worker()
	tok := w.BeginTrial()
	sp := w.Start(perf.StageRun)
	sp.Stop()
	w.EndTrial(tok)
	w.Close()
	if code := h.Finish(false, nil); code != 0 {
		t.Fatalf("Finish = %d", code)
	}
	for _, path := range []string{cpu, mem, out} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s not written: %v", path, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
	for _, want := range []string{"wrote CPU profile", "wrote heap profile", "wrote perf report", "stage"} {
		if !strings.Contains(log.String(), want) {
			t.Fatalf("receipt log missing %q:\n%s", want, log.String())
		}
	}
	rep, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rep), `"run"`) {
		t.Fatalf("perf report JSON missing run stage: %s", rep)
	}
}
