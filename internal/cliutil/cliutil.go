// Package cliutil is the harness the repository's commands share: one
// Harness registers the instrument and supervision flags (-trace,
// -debug-addr, -check, -features, the -perf observatory and the sweep
// supervision group), arms every instrument they ask for into an
// experiment.Options, and finishes the run by exporting the artifacts,
// printing the reports and resolving the exit code. A command calls
// Register, Arm and Finish once each; everything stays inert when the
// flags are unset. Per-command differences (the wall-clock tracer of a
// server, a tracer or registry another consumer forces, where receipts
// go) are fields set before Arm, not flags.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"h2privacy/internal/check"
	"h2privacy/internal/core"
	"h2privacy/internal/experiment"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/obs"
	"h2privacy/internal/perf"
	"h2privacy/internal/trace"
)

// DefaultStepBudget is the per-trial virtual-time watchdog default: a
// full attack trial executes ~12k scheduler events, so five million is
// ~400x headroom for the attack itself while a chaos-hang trial burns
// through it in a fraction of a second. Background load legitimately
// costs far more (crosstraffic at 300 Mbps fires up to ~5M events per
// trial), so experiment.CrossTraffic widens the budget by its measured
// event rate.
const DefaultStepBudget = 5_000_000

// Harness is one command's instrument and supervision flag set. Arm puts
// the instruments it builds into the caller's experiment.Options, and
// Finish reads them back from there.
type Harness struct {
	// Tool names the command in every receipt and error line.
	Tool string
	// TraceWhat describes the trace in -trace's help text.
	TraceWhat string
	// Server marks a wall-clock, goroutine-per-stream command (h2serve):
	// its tracer stamps real time and takes the mutex path, and it has no
	// perf or supervision flags.
	Server bool
	// Log receives diagnostics and reports; nil is stderr. Receipts
	// receives the trace and feature export receipts; nil is Log.
	Log, Receipts io.Writer

	// ForceTrace builds a tracer without -trace, for a consumer other than
	// the export (h2attack's -timeline). ForceRegistry builds the metrics
	// registry without -debug-addr (h2bench's -manifest). Hold keeps the
	// debug server up this long after the run (h2attack's -hold). All
	// three are read by Arm or Finish, so they may be set from parsed
	// flags.
	ForceTrace, ForceRegistry bool
	Hold                      time.Duration

	// Flag values.
	TracePath, TraceFormat          string
	DebugAddr                       string
	Check                           bool
	CheckReport                     string
	Features                        bool
	FeaturesOut                     string
	Perf                            bool
	PerfOut, CPUProfile, MemProfile string
	MaxRetries                      int
	StepBudget                      uint64
	Chaos                           string
	Strict                          bool
	QuarantineOut                   string

	opts    *experiment.Options
	debug   *obs.DebugServer
	cpuFile *os.File
}

// Register adds the harness's flags to fs: -trace, -trace-format,
// -debug-addr, -check, -check-report, -features and -features-out, and
// unless Server also -perf, -perf-out, -cpuprofile, -memprofile,
// -max-retries, -step-budget, -chaos, -strict and -quarantine-out.
func (h *Harness) Register(fs *flag.FlagSet) {
	fs.StringVar(&h.TracePath, "trace", "", "export "+h.TraceWhat+" to this file")
	fs.StringVar(&h.TraceFormat, "trace-format", trace.FormatChrome,
		"trace export format: "+strings.Join(trace.Formats(), ", "))
	fs.StringVar(&h.DebugAddr, "debug-addr", "",
		"serve /metrics, /healthz, /debug/pprof, /debug/trace and /debug/flows on this address (e.g. :9090; empty disables)")
	fs.BoolVar(&h.Check, "check", false,
		"arm runtime invariant checking on every layer of each trial (see internal/check)")
	fs.StringVar(&h.CheckReport, "check-report", "",
		"with -check: also write the full violation report to this file")
	fs.BoolVar(&h.Features, "features", false,
		"extract per-stream flow features (timelines, burst tables, clean-slate spans) and print them on exit")
	fs.StringVar(&h.FeaturesOut, "features-out", "",
		"write the feature rows to this file (.csv → stream CSV, else JSONL with stream/burst/span tables); implies -features extraction")
	if h.Server {
		return
	}
	fs.BoolVar(&h.Perf, "perf", false,
		"attribute host-side cost per trial stage (build/run/capture/check/publish) and print the hot-stage table on exit")
	fs.StringVar(&h.PerfOut, "perf-out", "",
		"write the perf report (stage table, worker utilization) as JSON to this file; implies -perf")
	fs.StringVar(&h.CPUProfile, "cpuprofile", "",
		"write a CPU profile (pprof, stage-labeled) to this file; implies -perf")
	fs.StringVar(&h.MemProfile, "memprofile", "",
		"write a heap profile (pprof, post-GC) to this file on exit; implies -perf")
	fs.IntVar(&h.MaxRetries, "max-retries", 1,
		"re-run a failed trial this many times (fresh state each attempt, escalating backoff) before quarantining it")
	fs.Uint64Var(&h.StepBudget, "step-budget", DefaultStepBudget,
		"virtual-time watchdog: kill a trial attempt after this many scheduler events (deterministic; 0 disables)")
	fs.StringVar(&h.Chaos, "chaos", "",
		"deterministically sabotage trials for supervisor testing: comma list of mode:flatIndex with modes panic|hang, e.g. panic:3,hang:11")
	fs.BoolVar(&h.Strict, "strict", false,
		"exit non-zero when the sweep completes degraded (any trial quarantined)")
	fs.StringVar(&h.QuarantineOut, "quarantine-out", "",
		"write the machine-readable quarantine file (failed trials with repro commands) to this path")
}

// Arm builds every instrument the parsed flags ask for into opts:
//
//   - a tracer with -trace, ForceTrace or -debug-addr (the debug server's
//     /debug/trace serves its ring live, so scrapes race the simulation
//     and the tracer takes its mutex path). An unknown -trace-format
//     fails here, before a long run, not at export time;
//   - a metrics registry with -debug-addr or ForceRegistry;
//   - a check recorder with -check;
//   - a flowseq collector with -features, -features-out or -debug-addr
//     (so /debug/flows serves live), published as the "features" expvar;
//   - a perf collector when any perf flag is given (stage labels only
//     with a CPU profile, where samples need them), and the CPU profile;
//   - unless Server, the supervision fields: retries, the step budget,
//     the -chaos hook and a Quarantine published as the "quarantine"
//     expvar;
//   - the debug server on -debug-addr, whose address is logged.
//
// Repro commands are the caller's: set them on opts.Check and
// opts.Quarantine after Arm (both are nil-safe).
func (h *Harness) Arm(opts *experiment.Options) error {
	h.opts = opts
	debug := h.DebugAddr != ""
	if h.TracePath != "" || h.ForceTrace || debug {
		if !slices.Contains(trace.Formats(), h.TraceFormat) {
			return fmt.Errorf("unknown trace format %q (want %s)",
				h.TraceFormat, strings.Join(trace.Formats(), ", "))
		}
		if h.Server {
			opts.Trace = trace.New(trace.WallClock(), trace.Config{Concurrent: true})
		} else {
			opts.Trace = trace.New(nil, trace.Config{Concurrent: debug})
		}
	}
	if debug || h.ForceRegistry {
		opts.Metrics = obs.NewRegistry()
	}
	if h.Check {
		opts.Check = check.NewRecorder()
	}
	if h.Features || h.FeaturesOut != "" || debug {
		col, out := flowseq.NewCollector(), h.FeaturesOut
		obs.PublishFeaturesVar(func() any { return col.Receipt(out) })
		col.PublishTo(opts.Metrics)
		opts.Features = col
	}
	if h.Perf || h.PerfOut != "" || h.CPUProfile != "" || h.MemProfile != "" {
		opts.Perf = perf.NewCollector()
		if h.CPUProfile != "" {
			opts.Perf.EnableLabels()
		}
		opts.Perf.PublishTo(opts.Metrics)
	}
	if !h.Server {
		chaos, err := ParseChaosSpec(h.Chaos)
		if err != nil {
			return err
		}
		q := experiment.NewQuarantine()
		obs.PublishQuarantineVar(func() any { return q.Receipt() })
		opts.MaxRetries = h.MaxRetries
		opts.RetryBackoff = 100 * time.Millisecond
		opts.StepBudget = h.StepBudget
		opts.Quarantine = q
		opts.ChaosTrial = chaos
	}
	if debug {
		ds := &obs.DebugServer{Registry: opts.Metrics, Tracer: opts.Trace}
		if opts.Features != nil {
			ds.Flows = opts.Features
		}
		addr, err := ds.Start(h.DebugAddr)
		if err != nil {
			return err
		}
		h.debug = ds
		h.logf("debug endpoints on http://%s/ (/metrics /healthz /debug/pprof /debug/trace /debug/flows)", addr)
	}
	if h.CPUProfile != "" {
		f, err := os.Create(h.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		h.cpuFile = f
	}
	return nil
}

// Finish ends the run Arm started, in order: stop the profiles, print the
// perf table and write -perf-out, export -trace and the features, run
// report (the command's own closing output; nil for none), print the
// quarantine and check reports, and release the debug server after Hold.
// It returns the exit code: 1 on any check violation, 130 when
// interrupted, 1 under -strict with trials quarantined, else 0. A failed
// export is logged and exits 1.
func (h *Harness) Finish(interrupted bool, report func() error) int {
	code, err := h.finish(interrupted, report)
	if err != nil {
		fmt.Fprintf(h.log(), "%s: %v\n", h.Tool, err)
		return 1
	}
	return code
}

func (h *Harness) finish(interrupted bool, report func() error) (int, error) {
	if err := h.stopProfiles(); err != nil {
		return 0, err
	}
	if c := h.opts.Perf; c != nil {
		rep := c.Report()
		rep.WriteText(h.log(), 0)
		if h.PerfOut != "" {
			if err := rep.WriteFile(h.PerfOut); err != nil {
				return 0, err
			}
			h.logf("wrote perf report to %s", h.PerfOut)
		}
	}
	if err := h.exportTrace(); err != nil {
		return 0, err
	}
	if err := h.exportFeatures(); err != nil {
		return 0, err
	}
	if report != nil {
		if err := report(); err != nil {
			return 0, err
		}
	}
	quarantined, err := h.reportQuarantine()
	if err != nil {
		return 0, err
	}
	violations, err := h.reportCheck()
	if err != nil {
		return 0, err
	}
	if h.debug != nil {
		if h.Hold > 0 {
			h.logf("holding %v for debug scrapes", h.Hold)
			time.Sleep(h.Hold)
		}
		_ = h.debug.Close()
	}
	switch {
	case violations > 0:
		return 1, nil
	case interrupted:
		h.logf("interrupted — partial artifacts exported")
		return 130, nil
	case quarantined > 0 && h.Strict:
		return 1, nil
	}
	return 0, nil
}

// stopProfiles stops the CPU profile and writes the heap profile (after a
// forced GC, so the capture shows live heap rather than garbage).
func (h *Harness) stopProfiles() error {
	if h.cpuFile != nil {
		pprof.StopCPUProfile()
		err := h.cpuFile.Close()
		h.cpuFile = nil
		if err != nil {
			return err
		}
		h.logf("wrote CPU profile to %s", h.CPUProfile)
	}
	if h.MemProfile == "" {
		return nil
	}
	runtime.GC()
	if err := writeFile(h.MemProfile, pprof.WriteHeapProfile); err != nil {
		return err
	}
	h.logf("wrote heap profile to %s", h.MemProfile)
	return nil
}

func (h *Harness) exportTrace() error {
	tr := h.opts.Trace
	if h.TracePath == "" || tr == nil {
		return nil
	}
	if err := writeFile(h.TracePath, func(w io.Writer) error { return tr.WriteFormat(w, h.TraceFormat) }); err != nil {
		return err
	}
	fmt.Fprintf(h.receipts(), "%s: wrote %d trace events (%s) to %s\n",
		h.Tool, tr.Len(), h.TraceFormat, h.TracePath)
	return nil
}

// exportFeatures prints the burst tables with -features and writes the
// feature rows to -features-out (.csv → the stream CSV, anything else →
// the three-table JSONL).
func (h *Harness) exportFeatures() error {
	col := h.opts.Features
	if col == nil {
		return nil
	}
	if h.Features {
		if err := col.WriteTable(h.receipts()); err != nil {
			return err
		}
	}
	if h.FeaturesOut == "" {
		return nil
	}
	format := flowseq.FormatJSONL
	if strings.HasSuffix(h.FeaturesOut, ".csv") {
		format = flowseq.FormatCSV
	}
	if err := writeFile(h.FeaturesOut, func(w io.Writer) error { return col.WriteFlows(w, format) }); err != nil {
		return err
	}
	r := col.Receipt(h.FeaturesOut)
	fmt.Fprintf(h.receipts(), "%s: wrote %d stream / %d burst / %d span feature rows (schema %d, %s) to %s\n",
		h.Tool, r.StreamRows, r.BurstRows, r.SpanRows, r.Schema, format, h.FeaturesOut)
	return nil
}

// reportQuarantine prints the degraded-mode summary (each quarantined
// trial with its standalone repro command) and writes -quarantine-out —
// even with zero failures, so CI can assert on the file unconditionally.
// It returns the quarantined count.
func (h *Harness) reportQuarantine() (int, error) {
	q := h.opts.Quarantine
	if q == nil {
		return 0, nil
	}
	n := q.Len()
	if n > 0 {
		h.logf("sweep DEGRADED: %d trial(s) quarantined after exhausting retries", n)
		for _, f := range q.Failures() {
			fmt.Fprintf(h.log(), "  trial %d (seed %d) [%s] after %d attempt(s): %s\n",
				f.Trial, f.Seed, f.Kind, f.Attempts, f.Err)
			fmt.Fprintf(h.log(), "      repro: %s\n", f.Repro)
		}
	}
	if h.QuarantineOut != "" {
		if err := q.WriteFile(h.QuarantineOut, h.Tool); err != nil {
			return n, err
		}
		h.logf("wrote quarantine file (%d entries) to %s", n, h.QuarantineOut)
	}
	return n, nil
}

// reportCheck prints the recorder's summary, writes -check-report, and
// returns the violation count.
func (h *Harness) reportCheck() (int, error) {
	rec := h.opts.Check
	if rec == nil {
		return 0, nil
	}
	h.logf("%s", strings.TrimRight(rec.Report(), "\n"))
	if h.CheckReport != "" {
		if err := writeFile(h.CheckReport, func(w io.Writer) error { rec.WriteReport(w); return nil }); err != nil {
			return rec.Total(), err
		}
		h.logf("wrote check report to %s", h.CheckReport)
	}
	return rec.Total(), nil
}

func (h *Harness) log() io.Writer {
	if h.Log == nil {
		return os.Stderr
	}
	return h.Log
}

func (h *Harness) receipts() io.Writer {
	if h.Receipts == nil {
		return h.log()
	}
	return h.Receipts
}

func (h *Harness) logf(format string, args ...any) {
	fmt.Fprintf(h.log(), "%s: %s\n", h.Tool, fmt.Sprintf(format, args...))
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseChaosSpec parses the -chaos spec ("panic:3,hang:11") into the
// experiment.Options.ChaosTrial hook: a map from flat trial index to the
// injected core.ChaosMode. Empty spec → nil hook (no injection).
func ParseChaosSpec(spec string) (func(int) core.ChaosMode, error) {
	if spec == "" {
		return nil, nil
	}
	m := make(map[int]core.ChaosMode)
	for _, part := range strings.Split(spec, ",") {
		mode, idxStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad -chaos entry %q (want mode:trialIndex)", part)
		}
		cm, err := core.ParseChaosMode(mode)
		if err != nil {
			return nil, err
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("bad -chaos trial index %q in %q", idxStr, part)
		}
		m[idx] = cm
	}
	return func(flat int) core.ChaosMode { return m[flat] }, nil
}

// SignalContext returns a context cancelled on SIGINT/SIGTERM, for
// experiment.Options.Ctx: the first signal starts the cooperative drain
// (workers stop claiming trials, the trial in flight is interrupted at
// the scheduler's next poll window, partial artifacts export on the way
// out); a second signal kills the process through the restored default
// handler. Callers defer stop().
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}
